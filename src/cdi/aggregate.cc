#include "cdi/aggregate.h"

#include <bit>
#include <cmath>
#include <limits>

namespace cdibot {

namespace {

constexpr int kDigitBits = 32;
constexpr int64_t kDigitMask = (int64_t{1} << kDigitBits) - 1;
/// Exponent of the lowest bit of a double (the least subnormal), i.e. the
/// weight of digit 0's lowest bit.
constexpr int kMinExponent = -1074;

}  // namespace

void CdiAccumulator::Add(Duration service_time, double cdi) {
  AddTerm(static_cast<double>(service_time.millis()) * cdi, +1);
  total_service_ms_ += service_time.millis();
}

void CdiAccumulator::Remove(Duration service_time, double cdi) {
  AddTerm(static_cast<double>(service_time.millis()) * cdi, -1);
  total_service_ms_ -= service_time.millis();
}

void CdiAccumulator::Merge(const CdiAccumulator& other) {
  for (int i = 0; i < kDigits; ++i) digits_[i] += other.digits_[i];
  nan_terms_ += other.nan_terms_;
  pos_inf_terms_ += other.pos_inf_terms_;
  neg_inf_terms_ += other.neg_inf_terms_;
  total_service_ms_ += other.total_service_ms_;
  uncarried_ += other.uncarried_ + 1;
  if (uncarried_ >= kCarryInterval) Carry();
}

double CdiAccumulator::Value() const {
  if (total_service_ms_ == 0) return 0.0;
  return RoundedSum() / static_cast<double>(total_service_ms_);
}

void CdiAccumulator::AddTerm(double term, int sign) {
  const uint64_t bits = std::bit_cast<uint64_t>(term);
  const int biased_exponent = static_cast<int>(bits >> 52) & 0x7FF;
  uint64_t mantissa = bits & ((uint64_t{1} << 52) - 1);
  if (biased_exponent == 0x7FF) {
    if (mantissa != 0) {
      nan_terms_ += sign;
    } else if (bits >> 63) {
      neg_inf_terms_ += sign;
    } else {
      pos_inf_terms_ += sign;
    }
    return;
  }
  if (biased_exponent != 0) mantissa |= uint64_t{1} << 52;
  if (mantissa == 0) return;
  // Bit position of the mantissa's lowest bit above 2^-1074: subnormals
  // (biased exponent 0) share the scale of the least normal binade.
  const int position = biased_exponent == 0 ? 0 : biased_exponent - 1;
  const int digit = position / kDigitBits;
  const int shift = position % kDigitBits;
  // The shifted mantissa spans at most three digits.
  const int64_t lo = static_cast<int64_t>((mantissa << shift) & kDigitMask);
  const int64_t mid =
      static_cast<int64_t>((mantissa >> (kDigitBits - shift)) & kDigitMask);
  const int64_t hi = static_cast<int64_t>(
      shift == 0 ? 0 : mantissa >> (2 * kDigitBits - shift));
  const int64_t s = (bits >> 63) ? -sign : sign;
  digits_[digit] += s * lo;
  digits_[digit + 1] += s * mid;
  digits_[digit + 2] += s * hi;
  if (++uncarried_ >= kCarryInterval) Carry();
}

void CdiAccumulator::Carry() {
  Propagate(digits_);
  uncarried_ = 0;
}

void CdiAccumulator::Propagate(Digits& digits) {
  // Leaves digits 0..kDigits-2 in [0, 2^32); arithmetic right shift floors,
  // so a negative total ends up as a negative top limb.
  for (int i = 0; i + 1 < kDigits; ++i) {
    const int64_t carry = digits[i] >> kDigitBits;
    digits[i] &= kDigitMask;
    digits[i + 1] += carry;
  }
}

double CdiAccumulator::RoundedSum() const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (nan_terms_ != 0 || (pos_inf_terms_ != 0 && neg_inf_terms_ != 0)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (pos_inf_terms_ != 0) return kInf;
  if (neg_inf_terms_ != 0) return -kInf;

  // Sign-magnitude form: normalized digits of |sum|.
  Digits d = digits_;
  Propagate(d);
  const bool negative = d[kDigits - 1] < 0;
  if (negative) {
    for (int64_t& digit : d) digit = -digit;
    Propagate(d);
  }
  const double sign = negative ? -1.0 : 1.0;

  // The top digit weighs 2^1006: from 2^18 up the sum is >= 2^1024.
  if (d[kDigits - 1] >= (int64_t{1} << (1024 - kMinExponent -
                                        kDigitBits * (kDigits - 1)))) {
    return sign * kInf;
  }
  int h = kDigits - 1;
  while (h >= 0 && d[h] == 0) --h;
  if (h < 0) return 0.0;
  const auto digit = [&d](int i) { return static_cast<uint64_t>(d[i]); };
  if (h <= 1) {
    // Below 2^-1010 the sum fits 64 bits at the subnormal scale: the
    // conversion rounds once and the scaling is exact.
    return sign * std::ldexp(static_cast<double>(digit(1) << kDigitBits |
                                                 digit(0)),
                             kMinExponent);
  }
  // The top 64 significant bits, with every bit below them folded into a
  // sticky lowest bit, round to the same double as the exact sum; the
  // result is normal, so the scaling is exact.
  uint64_t top = digit(h) << kDigitBits | digit(h - 1);
  const int lz = std::countl_zero(top);  // < 32: d[h] is a non-zero digit
  uint64_t rest = digit(h - 2);
  if (lz > 0) {
    top = top << lz | rest >> (kDigitBits - lz);
    rest &= (uint64_t{1} << (kDigitBits - lz)) - 1;
  }
  bool sticky = rest != 0;
  for (int i = h - 3; i >= 0 && !sticky; --i) sticky = d[i] != 0;
  if (sticky) top |= 1;
  return sign * std::ldexp(static_cast<double>(top),
                           kDigitBits * (h - 1) - lz + kMinExponent);
}

void FleetCdiPartial::AddVm(const VmCdi& vm) {
  u_.Add(vm.service_time, vm.unavailability);
  p_.Add(vm.service_time, vm.performance);
  c_.Add(vm.service_time, vm.control_plane);
}

void FleetCdiPartial::RemoveVm(const VmCdi& vm) {
  u_.Remove(vm.service_time, vm.unavailability);
  p_.Remove(vm.service_time, vm.performance);
  c_.Remove(vm.service_time, vm.control_plane);
}

void FleetCdiPartial::Merge(const FleetCdiPartial& other) {
  u_.Merge(other.u_);
  p_.Merge(other.p_);
  c_.Merge(other.c_);
}

VmCdi FleetCdiPartial::Finalize() const {
  return VmCdi{.unavailability = u_.Value(),
               .performance = p_.Value(),
               .control_plane = c_.Value(),
               .service_time = u_.total_service_time()};
}

}  // namespace cdibot

#ifndef CDIBOT_CDI_AGGREGATE_H_
#define CDIBOT_CDI_AGGREGATE_H_

#include <array>
#include <cstdint>
#include <string_view>

#include "cdi/vm_cdi.h"
#include "common/time.h"

namespace cdibot {

/// Service-time-weighted mean of per-VM CDI values — Eq. 4:
///
///   Q = sum_i(T_i * Q_i) / sum_i(T_i)
///
/// Exact and order-free. Each term T_i * Q_i is the rounded double product,
/// but the sum of terms is kept exactly in an integer superaccumulator
/// (Neal's "small superaccumulator", arXiv:1505.05571): 32-bit digits in
/// int64 limbs spanning every finite double, carried lazily. Add, Remove
/// and Merge are integer additions, so any split, permutation or add/remove
/// history of the same terms holds the same state up to carries, and Value()
/// rounds the exact sum once. Every topology therefore gets the same bits.
///
/// Non-finite terms are counted apart and make Value() NaN or +/-Inf, as a
/// double sum would; removing them again is exact as well.
class CdiAccumulator {
 public:
  /// Un-carried operations allowed before a carry pass: each leaves every
  /// limb within 2^32 of its previous value, so limbs stay far from
  /// overflowing int64 (and a merge of two accumulators within it still
  /// does).
  static constexpr int64_t kCarryInterval = int64_t{1} << 12;

  CdiAccumulator() = default;

  /// Adds one VM's indicator value with its service time.
  void Add(Duration service_time, double cdi);

  /// Retracts a previously added sample exactly — the streaming engine
  /// replaces a VM's contribution in place when late events change its
  /// indicator.
  void Remove(Duration service_time, double cdi);

  /// Merges another accumulator into this one.
  void Merge(const CdiAccumulator& other);

  /// The aggregated Q: the exact weighted sum rounded to nearest, divided
  /// by the total service time. Returns 0 when no service time has been
  /// added.
  double Value() const;

  /// The exact sum of the added terms (service ms x cdi), rounded once to
  /// nearest-even. Event-level CDI sums damage through it.
  double RoundedSum() const;

  Duration total_service_time() const {
    return Duration::Millis(total_service_ms_);
  }
  bool empty() const { return total_service_ms_ == 0; }

 private:
  /// Digit i weighs 2^(32 * i - 1074); 66 digits cover the 2098 bit
  /// positions of a finite double. The top limb keeps its carries
  /// unreduced.
  static constexpr int kDigits = 66;
  using Digits = std::array<int64_t, kDigits>;

  /// Adds (sign = +1) or subtracts (sign = -1) one term.
  void AddTerm(double term, int sign);
  void Carry();
  static void Propagate(Digits& digits);

  Digits digits_{};
  int64_t uncarried_ = 0;
  int64_t nan_terms_ = 0;
  int64_t pos_inf_terms_ = 0;
  int64_t neg_inf_terms_ = 0;
  int64_t total_service_ms_ = 0;
};

/// Mergeable partial form of the Eq.-4 fleet rollup: one accumulator per
/// sub-metric. Every topology folds through it — the batch job and the
/// result builder over rows, each streaming shard over its VMs, the
/// drill-down per group — and since CdiAccumulator is exact, merging
/// partials gives the same bits as folding the union of their VMs in any
/// order.
class FleetCdiPartial {
 public:
  FleetCdiPartial() = default;

  /// Folds one VM's indicators in.
  void AddVm(const VmCdi& vm);

  /// Retracts one VM's previously folded indicators.
  void RemoveVm(const VmCdi& vm);

  /// Merges another partial into this one.
  void Merge(const FleetCdiPartial& other);

  /// The fleet-level VmCdi over everything folded so far.
  VmCdi Finalize() const;

  Duration total_service_time() const { return u_.total_service_time(); }
  bool empty() const { return u_.empty(); }

 private:
  CdiAccumulator u_, p_, c_;
};

/// DEPRECATED forwarding shell over FleetCdiPartial, kept only because the
/// frozen benchmark driver (cdi_bench/) calls it: delete with the next
/// benchmark change. `vm_id` is ignored — the fold is order-free.
class CanonicalCdiFold {
 public:
  void Add(std::string_view /*vm_id*/, const VmCdi& cdi) { fold_.AddVm(cdi); }
  VmCdi Finalize() const { return fold_.Finalize(); }

 private:
  FleetCdiPartial fold_;
};

}  // namespace cdibot

#endif  // CDIBOT_CDI_AGGREGATE_H_

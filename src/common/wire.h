#ifndef CDIBOT_COMMON_WIRE_H_
#define CDIBOT_COMMON_WIRE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <string_view>

#include "common/statusor.h"
#include "common/time.h"

namespace cdibot {

/// Length+CRC framing of one payload, shared by the socket transport's byte
/// stream and the checkpoint file:
///
///   [u32 le length][payload bytes][u32 le crc32(payload)]
///
/// The length prefix delimits the payload; the CRC-32 (IEEE) trailer
/// catches bit rot, torn writes and spliced bytes.
inline constexpr size_t kWireHeaderBytes = 4;
inline constexpr size_t kWireTrailerBytes = 4;

/// Wraps `payload` in the framing above.
std::string EncodeWireFrame(std::string_view payload);

/// Unwraps a buffer holding exactly one frame: DataLoss when the buffer is
/// shorter than a header and trailer, when the length prefix disagrees with
/// the buffer's size (truncation or trailing bytes), or when the CRC does
/// not match. The returned payload views `bytes`.
StatusOr<std::string_view> DecodeWireFrame(std::string_view bytes);

/// Binary writer for the shard protocol (shard/message.h) and the stream
/// checkpoint file (storage/stream_checkpoint.h). Fixed-width little-endian
/// integers, length-prefixed strings, and bit-cast doubles: a double crosses
/// the wire as its exact IEEE-754 bit pattern, never through a decimal
/// round-trip, because the sharded-equivalence guarantee is BIT identity —
/// "%.17g and back" would be equality-up-to-parsing, a strictly weaker
/// claim. The encoding has no self-description; reader and writer agree on
/// the schemas, and each user carries its own version joint (the shard
/// protocol's MessageKind tag, the checkpoint file's magic + version).
class WireWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { PutFixed(&v, sizeof(v)); }
  void U64(uint64_t v) { PutFixed(&v, sizeof(v)); }
  void I64(int64_t v) { PutFixed(&v, sizeof(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    out_.append(s.data(), s.size());
  }
  void Time(TimePoint t) { I64(t.millis()); }
  void Dur(Duration d) { I64(d.millis()); }
  void Window(const Interval& iv) {
    Time(iv.start);
    Time(iv.end);
  }
  void StrMap(const std::map<std::string, std::string>& m) {
    U32(static_cast<uint32_t>(m.size()));
    for (const auto& [k, v] : m) {
      Str(k);
      Str(v);
    }
  }

  const std::string& frame() const& { return out_; }
  std::string Take() && { return std::move(out_); }

 private:
  void PutFixed(const void* p, size_t n) {
    // Little-endian byte order on the wire. The in-process transport never
    // crosses an endianness boundary, but sockets and files may; byte
    // swapping here (on the rare big-endian host) keeps frames portable.
    const auto* bytes = static_cast<const unsigned char*>(p);
    if constexpr (std::endian::native == std::endian::big) {
      for (size_t i = n; i-- > 0;) {
        out_.push_back(static_cast<char>(bytes[i]));
      }
    } else {
      out_.append(reinterpret_cast<const char*>(bytes), n);
    }
  }

  std::string out_;
};

/// Bounds-checked reader over a frame. Errors latch: the first truncation
/// or overlong string poisons the reader, every later read returns a zero
/// value, and status() reports the failure once at the end — so decode
/// functions read field-by-field without a Status check per field.
class WireReader {
 public:
  explicit WireReader(std::string_view frame) : frame_(frame) {}

  uint8_t U8() {
    uint8_t v = 0;
    GetFixed(&v, sizeof(v));
    return v;
  }
  uint32_t U32() {
    uint32_t v = 0;
    GetFixed(&v, sizeof(v));
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    GetFixed(&v, sizeof(v));
    return v;
  }
  int64_t I64() {
    int64_t v = 0;
    GetFixed(&v, sizeof(v));
    return v;
  }
  double F64() {
    const uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  bool Bool() { return U8() != 0; }
  std::string Str() {
    const uint32_t n = U32();
    if (!ok_ || n > frame_.size() - pos_) {
      Poison("truncated string");
      return {};
    }
    std::string s(frame_.substr(pos_, n));
    pos_ += n;
    return s;
  }
  TimePoint Time() { return TimePoint::FromMillis(I64()); }
  Duration Dur() { return Duration::Millis(I64()); }
  Interval Window() {
    const TimePoint start = Time();
    return Interval(start, Time());
  }
  std::map<std::string, std::string> StrMap() {
    std::map<std::string, std::string> m;
    const uint32_t n = U32();
    for (uint32_t i = 0; i < n && ok_; ++i) {
      std::string k = Str();
      m[std::move(k)] = Str();
    }
    return m;
  }

  /// Reads a count field and validates it against the bytes actually left
  /// in the frame (each element needs at least `min_element_bytes`), so a
  /// corrupted length prefix cannot drive a multi-gigabyte reserve.
  uint32_t Count(size_t min_element_bytes = 1) {
    const uint32_t n = U32();
    if (ok_ && min_element_bytes > 0 &&
        n > (frame_.size() - pos_) / min_element_bytes) {
      Poison("count exceeds remaining frame");
      return 0;
    }
    return n;
  }

  /// Latches a decoder-level failure — a cross-field invariant the byte
  /// reads alone cannot catch, like an out-of-range table index — into the
  /// same error state a truncation would produce.
  void Fail(std::string_view why) { Poison(why); }

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == frame_.size(); }
  Status status() const {
    if (ok_) return Status::OK();
    return Status::DataLoss("malformed wire frame: " + error_);
  }

 private:
  void Poison(std::string_view why) {
    if (ok_) {
      ok_ = false;
      error_ = std::string(why);
    }
  }
  void GetFixed(void* p, size_t n) {
    if (!ok_ || n > frame_.size() - pos_) {
      Poison("truncated frame");
      std::memset(p, 0, n);
      return;
    }
    auto* bytes = static_cast<unsigned char*>(p);
    if constexpr (std::endian::native == std::endian::big) {
      for (size_t i = n; i-- > 0;) {
        bytes[i] = static_cast<unsigned char>(frame_[pos_++]);
      }
    } else {
      std::memcpy(p, frame_.data() + pos_, n);
      pos_ += n;
    }
  }

  std::string_view frame_;
  size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

}  // namespace cdibot

#endif  // CDIBOT_COMMON_WIRE_H_

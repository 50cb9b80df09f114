#ifndef CDIBOT_TESTS_NET_CHAOS_H_
#define CDIBOT_TESTS_NET_CHAOS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/time.h"
#include "shard/host.h"

namespace cdibot::chaos {

/// A deterministic, seed-driven script of network faults applied to the
/// coordinator side of every shard connection. Complements FaultPlan (which
/// mangles telemetry *content*): this layer mangles the *wire* under the
/// shard protocol — torn frames, flipped bits, resets, duplicated frames,
/// asymmetric partitions — and a correct fleet must still converge to
/// bit-identical CDI, because every fault here is either detected (CRC,
/// framing) or idempotent to retry (session dedup).
///
/// Faults are drawn per operation from a per-shard Rng whose state survives
/// reconnects, so a whole chaos run is a pure function of (plan, seed).
///
/// Note the deliberate asymmetry: outbound frames (coordinator -> worker)
/// can be truncated, corrupted and dropped at the byte level; inbound
/// frames (worker -> coordinator) can only be swallowed whole. Corrupting
/// an inbound payload AFTER the inner transport verified its CRC would
/// model a fault no real network can produce below a checksummed stream —
/// and would rightly break bit-identity.
struct NetFaultPlan {
  std::string name = "clean";
  uint64_t seed = 0;

  /// Send: write only a prefix of the wire frame, then reset the
  /// connection — the peer sees a torn frame (EOF mid-frame).
  double truncate_probability = 0.0;
  /// Send: flip one bit somewhere past the length prefix (payload or CRC
  /// trailer), so the peer's CRC check must reject the frame. The length
  /// prefix is spared deliberately: corrupting it stalls the peer waiting
  /// for bytes that never come, which models a hang, not a detectable
  /// fault.
  double corrupt_probability = 0.0;
  /// Send: reset the connection without writing anything.
  double reset_probability = 0.0;
  /// Send: deliver the frame twice (the worker's session dedup must make
  /// the copy a no-op).
  double duplicate_probability = 0.0;
  /// Send: hold the frame back up to max_delay before writing it.
  double delay_probability = 0.0;
  Duration max_delay = Duration::Millis(2);
  /// Send: silently drop the frame but report success — one half of an
  /// asymmetric partition (the coordinator believes it spoke).
  double outbound_drop_probability = 0.0;
  /// Recv: swallow a fully delivered frame — the other half (the worker
  /// believes it answered). The caller's per-attempt timeout turns this
  /// into a retry of the same request id.
  double inbound_drop_probability = 0.0;

  bool enabled() const {
    return truncate_probability > 0 || corrupt_probability > 0 ||
           reset_probability > 0 || duplicate_probability > 0 ||
           delay_probability > 0 || outbound_drop_probability > 0 ||
           inbound_drop_probability > 0;
  }

  /// Presets, roughly ordered by hostility.
  static NetFaultPlan Clean();
  static NetFaultPlan TornFrames(uint64_t seed);
  static NetFaultPlan FlippedBits(uint64_t seed);
  static NetFaultPlan Resets(uint64_t seed);
  static NetFaultPlan FlakyDelivery(uint64_t seed);  // duplicates + delays
  static NetFaultPlan Partition(uint64_t seed);      // both drop directions
  /// Everything at once: torn frames + flipped bits + resets + duplicates
  /// + delays + an asymmetric partition. The acceptance gauntlet.
  static NetFaultPlan HostileNetwork(uint64_t seed);
};

/// Builds a transport decorator for ShardTopologyOptions::transport_decorator
/// that applies `plan` to every connection the coordinator dials. The
/// returned decorator owns the per-shard Rng state, so it must be installed
/// on exactly one coordinator per deterministic run.
shard::SocketDecorator MakeChaosDecorator(NetFaultPlan plan);

}  // namespace cdibot::chaos

#endif  // CDIBOT_TESTS_NET_CHAOS_H_

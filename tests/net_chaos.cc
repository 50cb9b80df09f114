#include "net_chaos.h"

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "common/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/socket_transport.h"

namespace cdibot::chaos {

namespace {

struct NetChaosMetrics {
  obs::Counter* truncated;
  obs::Counter* corrupted;
  obs::Counter* resets;
  obs::Counter* duplicates;
  obs::Counter* delays;
  obs::Counter* outbound_dropped;
  obs::Counter* inbound_dropped;
};

const NetChaosMetrics& Metrics() {
  static const NetChaosMetrics m = [] {
    auto& reg = obs::MetricsRegistry::Global();
    return NetChaosMetrics{
        .truncated = reg.GetCounter("chaos.net.truncated"),
        .corrupted = reg.GetCounter("chaos.net.corrupted"),
        .resets = reg.GetCounter("chaos.net.resets"),
        .duplicates = reg.GetCounter("chaos.net.duplicates"),
        .delays = reg.GetCounter("chaos.net.delays"),
        .outbound_dropped = reg.GetCounter("chaos.net.outbound_dropped"),
        .inbound_dropped = reg.GetCounter("chaos.net.inbound_dropped"),
    };
  }();
  return m;
}

/// Per-shard fault stream, shared across every connection the shard ever
/// gets: reconnect must not rewind the dice.
struct ShardDice {
  std::mutex mu;
  Rng rng;
  explicit ShardDice(uint64_t seed) : rng(seed) {}
};

/// All shards' dice, owned by the decorator closure.
struct DiceTable {
  std::mutex mu;
  uint64_t seed = 0;
  std::map<size_t, std::shared_ptr<ShardDice>> per_shard;

  std::shared_ptr<ShardDice> For(size_t shard) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = per_shard.find(shard);
    if (it != per_shard.end()) return it->second;
    // SplitMix-style per-shard seeding keeps shard streams unrelated.
    auto dice = std::make_shared<ShardDice>(
        seed ^ (0x9E3779B97F4A7C15ULL * (shard + 1)));
    per_shard.emplace(shard, dice);
    return dice;
  }
};

/// The fault-injecting Transport decorator. Wraps the coordinator side of
/// one shard connection; mangles Sends at the byte level through SendRaw
/// and swallows Recvs whole. Every decision comes from the shard's dice.
class ChaosTransport final : public shard::Transport {
 public:
  ChaosTransport(std::unique_ptr<shard::SocketTransport> inner,
                 NetFaultPlan plan, std::shared_ptr<ShardDice> dice)
      : inner_(std::move(inner)), plan_(std::move(plan)),
        dice_(std::move(dice)) {}

  Status Send(std::string frame) override {
    enum class Fate { kClean, kTruncate, kCorrupt, kReset, kDuplicate, kDrop };
    Fate fate = Fate::kClean;
    bool delay = false;
    int64_t delay_ms = 0;
    size_t cut = 0;
    size_t flip_index = 0;
    uint8_t flip_mask = 1;
    const std::string wire = EncodeWireFrame(frame);
    {
      std::lock_guard<std::mutex> lock(dice_->mu);
      Rng& rng = dice_->rng;
      if (rng.Bernoulli(plan_.delay_probability)) {
        delay = true;
        delay_ms = rng.UniformInt(0, plan_.max_delay.millis());
      }
      // One destructive fate per frame, drawn in fixed order so the fault
      // stream is stable under plan tweaks to later probabilities.
      if (rng.Bernoulli(plan_.outbound_drop_probability)) {
        fate = Fate::kDrop;
      } else if (rng.Bernoulli(plan_.reset_probability)) {
        fate = Fate::kReset;
      } else if (rng.Bernoulli(plan_.truncate_probability)) {
        fate = Fate::kTruncate;
        cut = static_cast<size_t>(
            rng.UniformInt(1, static_cast<int64_t>(wire.size()) - 1));
      } else if (rng.Bernoulli(plan_.corrupt_probability) &&
                 wire.size() > kWireHeaderBytes) {
        fate = Fate::kCorrupt;
        flip_index = static_cast<size_t>(
            rng.UniformInt(static_cast<int64_t>(kWireHeaderBytes),
                           static_cast<int64_t>(wire.size()) - 1));
        flip_mask = static_cast<uint8_t>(1u << rng.UniformInt(0, 7));
      } else if (rng.Bernoulli(plan_.duplicate_probability)) {
        fate = Fate::kDuplicate;
      }
    }
    // Each injected fault also drops an instant event into the trace (when
    // tracing is on), so a merged fleet trace shows the chaos pins right on
    // the RPC spans they sabotaged.
    if (delay) {
      Metrics().delays->Increment();
      obs::RecordInstant("chaos.net.delay");
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    }
    switch (fate) {
      case Fate::kClean:
        return inner_->Send(std::move(frame));
      case Fate::kDrop:
        // The partition ate it, but the kernel said the write succeeded.
        Metrics().outbound_dropped->Increment();
        obs::RecordInstant("chaos.net.outbound_drop");
        return Status::OK();
      case Fate::kReset:
        Metrics().resets->Increment();
        obs::RecordInstant("chaos.net.reset");
        inner_->Close();
        return Status::Unavailable("chaos: connection reset");
      case Fate::kTruncate: {
        // A prefix of the frame, then the connection dies: the peer's
        // assembler is left mid-frame and must report a torn frame.
        Metrics().truncated->Increment();
        obs::RecordInstant("chaos.net.truncate");
        static_cast<void>(
            inner_->SendRaw(std::string_view(wire).substr(0, cut)));
        inner_->Close();
        return Status::Unavailable("chaos: connection reset mid-frame");
      }
      case Fate::kCorrupt: {
        // One flipped bit past the length prefix; the peer's CRC check
        // must reject the frame and tear the connection down.
        Metrics().corrupted->Increment();
        obs::RecordInstant("chaos.net.corrupt");
        std::string damaged = wire;
        damaged[flip_index] =
            static_cast<char>(static_cast<uint8_t>(damaged[flip_index]) ^
                              flip_mask);
        return inner_->SendRaw(damaged);
      }
      case Fate::kDuplicate: {
        Metrics().duplicates->Increment();
        obs::RecordInstant("chaos.net.duplicate");
        std::string copy = frame;
        CDIBOT_RETURN_IF_ERROR(inner_->Send(std::move(frame)));
        return inner_->Send(std::move(copy));
      }
    }
    return Status::Internal("unreachable");
  }

  StatusOr<std::string> Recv(const Deadline& deadline) override {
    while (true) {
      auto frame_or = inner_->Recv(deadline);
      if (!frame_or.ok()) return frame_or;
      bool swallow = false;
      {
        std::lock_guard<std::mutex> lock(dice_->mu);
        swallow = dice_->rng.Bernoulli(plan_.inbound_drop_probability);
      }
      if (!swallow) return frame_or;
      Metrics().inbound_dropped->Increment();
      obs::RecordInstant("chaos.net.inbound_drop");
    }
  }

  void Close() override { inner_->Close(); }
  bool closed() const override { return inner_->closed(); }
  size_t inbound_depth() const override { return inner_->inbound_depth(); }

 private:
  const std::unique_ptr<shard::SocketTransport> inner_;
  const NetFaultPlan plan_;
  const std::shared_ptr<ShardDice> dice_;
};

}  // namespace

NetFaultPlan NetFaultPlan::Clean() { return NetFaultPlan{}; }

NetFaultPlan NetFaultPlan::TornFrames(uint64_t seed) {
  NetFaultPlan plan;
  plan.name = "torn-frames";
  plan.seed = seed;
  plan.truncate_probability = 0.05;
  return plan;
}

NetFaultPlan NetFaultPlan::FlippedBits(uint64_t seed) {
  NetFaultPlan plan;
  plan.name = "flipped-bits";
  plan.seed = seed;
  plan.corrupt_probability = 0.05;
  return plan;
}

NetFaultPlan NetFaultPlan::Resets(uint64_t seed) {
  NetFaultPlan plan;
  plan.name = "resets";
  plan.seed = seed;
  plan.reset_probability = 0.04;
  return plan;
}

NetFaultPlan NetFaultPlan::FlakyDelivery(uint64_t seed) {
  NetFaultPlan plan;
  plan.name = "flaky-delivery";
  plan.seed = seed;
  plan.duplicate_probability = 0.08;
  plan.delay_probability = 0.10;
  plan.max_delay = Duration::Millis(2);
  return plan;
}

NetFaultPlan NetFaultPlan::Partition(uint64_t seed) {
  NetFaultPlan plan;
  plan.name = "partition";
  plan.seed = seed;
  plan.outbound_drop_probability = 0.04;
  plan.inbound_drop_probability = 0.04;
  return plan;
}

NetFaultPlan NetFaultPlan::HostileNetwork(uint64_t seed) {
  NetFaultPlan plan;
  plan.name = "hostile-network";
  plan.seed = seed;
  plan.truncate_probability = 0.02;
  plan.corrupt_probability = 0.02;
  plan.reset_probability = 0.02;
  plan.duplicate_probability = 0.04;
  plan.delay_probability = 0.05;
  plan.max_delay = Duration::Millis(2);
  plan.outbound_drop_probability = 0.02;
  plan.inbound_drop_probability = 0.02;
  return plan;
}

shard::SocketDecorator MakeChaosDecorator(NetFaultPlan plan) {
  if (!plan.enabled()) return nullptr;
  auto table = std::make_shared<DiceTable>();
  table->seed = plan.seed;
  return [plan = std::move(plan), table](
             std::unique_ptr<shard::SocketTransport> inner,
             size_t shard_index) -> std::unique_ptr<shard::Transport> {
    return std::make_unique<ChaosTransport>(std::move(inner), plan,
                                            table->For(shard_index));
  };
}

}  // namespace cdibot::chaos

// Malformed-checkpoint corpus: every way a checkpoint file can be damaged —
// torn writes, bit rot, a foreign file, a future format version, states no
// engine writes — and the exact status each one must produce. The restore
// path must refuse to load anything inconsistent rather than resume from a
// lie; the slot store must retry transient I/O and give up on permanent.
// "Manifest" in the case names is the file's length+CRC frame.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/wire.h"
#include "storage/checkpoint_store.h"
#include "storage/stream_checkpoint.h"

namespace cdibot {
namespace {

namespace fs = std::filesystem;

TimePoint T(const char* s) { return TimePoint::Parse(s).value(); }

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  ASSERT_TRUE(out.good()) << path;
}

StreamCheckpoint Golden() {
    StreamCheckpoint ckpt;
    const TimePoint day = T("2026-05-20 00:00");
    ckpt.window = Interval(day, day + Duration::Days(1));
    ckpt.watermark = day + Duration::Hours(1);
    ckpt.max_event_time = day + Duration::Hours(2);
    ckpt.events_ingested = 10;
    ckpt.events_late = 1;
    ckpt.events_out_of_window = 2;
    ckpt.events_orphaned = 3;
    ckpt.vms_recomputed = 4;
    ckpt.quarantined_by_reason = {0, 2, 0, 1, 0, 0, 0};

    CheckpointVmEntry vm_a;
    vm_a.vm_id = "vm-a";
    // Values may hold any bytes, the ASCII separators included.
    vm_a.dims = {{"region", "eu\x1f" "west\x1e" "2"}, {"pool", "general"}};
    vm_a.service_period = ckpt.window;
    ckpt.vms.push_back(vm_a);
    CheckpointVmEntry vm_b;
    vm_b.vm_id = "vm-b";
    vm_b.service_period = ckpt.window;
    ckpt.vms.push_back(vm_b);

    RawEvent ev;
    ev.name = "slow_io";
    ev.time = day + Duration::Hours(2);
    ev.target = "vm-sev";  // unique marker so tests can patch this event
    ev.level = Severity::kCritical;
    ev.expire_interval = Duration::Hours(1);
    ev.attrs["duration_ms"] = "60000";
    ckpt.events.push_back(ev);
    ev.target = "vm-a";
    ev.attrs = {{"note", "a\x1e" "b\x1f" "c"}};
    ckpt.events.push_back(ev);

    RawEvent orphan = ev;
    orphan.target = "vm-unregistered";
    orphan.attrs = {{"source", "late"}};
    ckpt.orphan_events.push_back(orphan);

    CheckpointTargetQuality q;
    q.target = "vm-a";
    q.received = 5;
    q.expected = 6;
    q.quarantined = 1;
    q.shed = 7;
    ckpt.target_quality.push_back(q);
    return ckpt;
}

class CheckpointCorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-process file: ctest may run corpus cases concurrently in
    // separate processes, and a shared path lets them corrupt each other.
    path_ = ::testing::TempDir() + "/ckpt_corpus_" +
            std::to_string(::getpid());
    ASSERT_TRUE(SaveStreamCheckpoint(Golden(), path_).ok());
    golden_file_ = ReadAll(path_);
  }

  void TearDown() override { fs::remove(path_); }

  /// Edits the frame's payload, then re-frames it with a fresh valid CRC so
  /// the decoder and the semantic checks (not the CRC check) see the edit.
  void PatchAndReseal(const std::function<void(std::string&)>& edit) {
    auto payload = DecodeWireFrame(golden_file_);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    std::string patched(*payload);
    edit(patched);
    WriteAll(path_, EncodeWireFrame(patched));
  }

  /// Offset of the format version: right after the length-prefixed magic.
  static size_t VersionOffset(const std::string& payload) {
    WireReader r(payload);
    return 4 + r.Str().size();
  }

  std::string path_;
  std::string golden_file_;
};

TEST_F(CheckpointCorpusTest, RoundTripPreservesEverything) {
  auto loaded = LoadStreamCheckpoint(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, Golden());
}

TEST_F(CheckpointCorpusTest, ManifestDetectsMissingFile) {
  // Only the length prefix landed: the frame promises a payload that is
  // not there.
  WriteAll(path_, golden_file_.substr(0, kWireHeaderBytes));
  EXPECT_TRUE(LoadStreamCheckpoint(path_).status().IsDataLoss());
}

TEST_F(CheckpointCorpusTest, ManifestDetectsTruncation) {
  // The torn write: the tail never hit disk.
  WriteAll(path_, golden_file_.substr(0, golden_file_.size() - 5));
  EXPECT_TRUE(LoadStreamCheckpoint(path_).status().IsDataLoss());
}

TEST_F(CheckpointCorpusTest, ManifestDetectsBitRot) {
  std::string text = golden_file_;
  text[text.size() / 2] ^= 0x20;  // same size, different bytes
  WriteAll(path_, text);
  EXPECT_TRUE(LoadStreamCheckpoint(path_).status().IsDataLoss());
}

TEST_F(CheckpointCorpusTest, WrongManifestTagIsDataLoss) {
  PatchAndReseal([](std::string& payload) { payload[4] ^= 0x20; });
  EXPECT_TRUE(LoadStreamCheckpoint(path_).status().IsDataLoss());
}

TEST_F(CheckpointCorpusTest, GarbageManifestIsRejected) {
  WriteAll(path_, "not a checkpoint at all\n");
  const Status st = LoadStreamCheckpoint(path_).status();
  EXPECT_TRUE(st.IsDataLoss()) << st.ToString();  // not "no checkpoint"
}

TEST_F(CheckpointCorpusTest, FutureFormatVersionIsRejected) {
  PatchAndReseal([](std::string& payload) {
    WireWriter w;
    w.U32(kStreamCheckpointVersion + 1);
    payload.replace(VersionOffset(payload), 4, w.frame());
  });
  const Status st = LoadStreamCheckpoint(path_).status();
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("unsupported checkpoint format_version"),
            std::string::npos)
      << st.ToString();
}

TEST_F(CheckpointCorpusTest, WatermarkBeyondMaxEventTimeIsRejected) {
  // Golden: watermark = day+1h, max_event_time = day+2h. Push the watermark
  // an hour past max_event_time — an impossible state for the engine. It
  // follows the version and the window on the wire.
  PatchAndReseal([](std::string& payload) {
    WireWriter w;
    w.Time(T("2026-05-20 00:00") + Duration::Hours(3));
    payload.replace(VersionOffset(payload) + 4 + 16, 8, w.frame());
  });
  const Status st = LoadStreamCheckpoint(path_).status();
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("beyond max_event_time"), std::string::npos);
}

TEST_F(CheckpointCorpusTest, BadSeverityEventRowIsRejected) {
  // Find the unique vm-sev event and stomp its severity ordinal, which
  // follows the target and the 8-byte expire interval on the wire.
  PatchAndReseal([](std::string& payload) {
    const size_t at = payload.find("vm-sev");
    ASSERT_NE(at, std::string::npos);
    payload[at + 6 + 8] = 9;
  });
  const Status st = LoadStreamCheckpoint(path_).status();
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("bad severity"), std::string::npos);
}

TEST_F(CheckpointCorpusTest, EveryTruncationAndByteFlipIsDataLoss) {
  for (size_t len = 0; len < golden_file_.size(); ++len) {
    WriteAll(path_, golden_file_.substr(0, len));
    const Status st = LoadStreamCheckpoint(path_).status();
    ASSERT_TRUE(st.IsDataLoss()) << "prefix " << len << ": " << st.ToString();
  }
  for (size_t i = 0; i < golden_file_.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = golden_file_;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      WriteAll(path_, flipped);
      const Status st = LoadStreamCheckpoint(path_).status();
      ASSERT_TRUE(st.IsDataLoss())
          << "byte " << i << " bit " << bit << ": " << st.ToString();
    }
  }
}

// --- StreamCheckpointStore: injected I/O faults against the retry path ----

TEST(CheckpointStoreFaultTest, SaveRetriesTransientInjectedFaults) {
  const std::string root = ::testing::TempDir() + "/store_transient";
  fs::remove_all(root);
  CheckpointStoreOptions options;
  int failures_left = 2;
  options.io_fault = [&failures_left](std::string_view op) {
    if (op == "save" && failures_left > 0) {
      --failures_left;
      return Status::Unavailable("injected");
    }
    return Status::OK();
  };
  auto store = StreamCheckpointStore::Open(root, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Save(Golden()).ok());
  EXPECT_EQ(store->last_attempts(), 3);
  EXPECT_EQ(store->ListSlots().size(), 1u);
  EXPECT_TRUE(store->LoadLastGood().ok());
}

TEST(CheckpointStoreFaultTest, PermanentInjectedFaultAbortsSaveCleanly) {
  const std::string root = ::testing::TempDir() + "/store_permanent";
  fs::remove_all(root);
  CheckpointStoreOptions options;
  options.io_fault = [](std::string_view) {
    return Status::DataLoss("disk is lying");
  };
  auto store = StreamCheckpointStore::Open(root, options);
  ASSERT_TRUE(store.ok());
  const Status st = store->Save(Golden());
  EXPECT_TRUE(st.IsDataLoss());
  EXPECT_EQ(store->last_attempts(), 1);  // DataLoss is never retried
  // The aborted save left no half-written slot for LoadLastGood to trip on.
  EXPECT_TRUE(store->ListSlots().empty());
}

TEST_F(CheckpointCorpusTest, DirectoryIsDataLossNotAnEmptyFile) {
  const std::string dir = path_ + "_dir";
  fs::create_directory(dir);
  const Status st = LoadStreamCheckpoint(dir).status();
  fs::remove(dir);
  EXPECT_TRUE(st.IsDataLoss()) << st.ToString();
  EXPECT_EQ(st.message(), "not a regular file: " + dir);
  // A missing path stays NotFound.
  EXPECT_TRUE(LoadStreamCheckpoint(dir).status().IsNotFound());
}

TEST(CheckpointStoreFaultTest, DirectorySlotFallsBackToOlderFile) {
  // A pre-format checkpoint was a directory named like a slot; the store
  // skips it as corrupt and loads the newest real file.
  const std::string root = ::testing::TempDir() + "/store_dir_slot_" +
                           std::to_string(::getpid());
  fs::remove_all(root);
  auto store = StreamCheckpointStore::Open(root);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Save(Golden()).ok());
  fs::create_directory(root + "/slot-000099");
  int skipped = 0;
  auto loaded = store->LoadLastGood(&skipped);
  fs::remove_all(root);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, Golden());
  EXPECT_EQ(skipped, 1);
}

TEST(CheckpointStoreFaultTest, LoadRetriesTransientInjectedFaults) {
  const std::string root = ::testing::TempDir() + "/store_load_transient";
  fs::remove_all(root);
  int failures_left = 1;
  CheckpointStoreOptions options;
  options.io_fault = [&failures_left](std::string_view op) {
    if (op == "load" && failures_left > 0) {
      --failures_left;
      return Status::Unavailable("injected");
    }
    return Status::OK();
  };
  auto store = StreamCheckpointStore::Open(root, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Save(Golden()).ok());
  auto loaded = store->LoadLastGood();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(store->last_attempts(), 2);
  EXPECT_EQ(loaded->events_ingested, 10u);
}

}  // namespace
}  // namespace cdibot

// Unit tests for the socket transport stack underneath the shard fleet:
// wire framing (length prefix + CRC32 trailer) under arbitrary byte splits,
// SocketTransport error vocabulary (Aborted deadlines, Unavailable clean
// EOF, DataLoss torn/corrupted frames), close-while-blocked-in-Recv drain
// semantics for both the in-process channel and the socket, the worker-side
// exactly-once session tracking in ShardService, session resumption across
// reconnects in ShardServer, and the ProcessHost supervising a real child
// process the kernel can SIGKILL.
#include <gtest/gtest.h>

#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "shard/host.h"
#include "shard/message.h"
#include "shard/service.h"
#include "shard/socket_transport.h"
#include "shard_equivalence_harness.h"

// Baked in by tests/CMakeLists.txt; points at the built shard_worker.
#ifndef SHARD_WORKER_BIN
#define SHARD_WORKER_BIN ""
#endif

namespace cdibot {
namespace {

using shard::FrameAssembler;
using shard::SocketListener;
using shard::SocketTransport;
using shard::Transport;

std::string TempSocketPath(const std::string& tag) {
  return "/tmp/cdibot-sock-test-" + tag + "-" + std::to_string(::getpid()) +
         ".sock";
}

/// A connected Unix-domain transport pair (client end, server end).
struct SocketPair {
  std::unique_ptr<SocketTransport> client;
  std::unique_ptr<SocketTransport> server;
};

SocketPair MakeUnixPair(const std::string& tag) {
  auto listener_or = SocketListener::BindUnix(TempSocketPath(tag));
  EXPECT_TRUE(listener_or.ok()) << listener_or.status().ToString();
  SocketListener listener = std::move(listener_or).value();
  auto client_or =
      shard::ConnectUnix(listener.path(), Deadline::After(Duration::Seconds(5)));
  EXPECT_TRUE(client_or.ok()) << client_or.status().ToString();
  auto server_or = listener.Accept(Deadline::After(Duration::Seconds(5)));
  EXPECT_TRUE(server_or.ok()) << server_or.status().ToString();
  return {std::move(client_or).value(), std::move(server_or).value()};
}

// --- Wire framing -----------------------------------------------------------

TEST(FrameAssemblerTest, WholeFrameRoundTrips) {
  const std::string payload = "the payload \x00\x01\xff bytes";
  FrameAssembler asm_;
  asm_.Feed(EncodeWireFrame(payload));
  auto got = asm_.Next();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, payload);
  EXPECT_TRUE(asm_.Next().status().IsNotFound());
  EXPECT_FALSE(asm_.mid_frame());
}

TEST(FrameAssemblerTest, ReassemblesOneByteAtATime) {
  const std::string payload(1000, 'x');
  const std::string wire = EncodeWireFrame(payload);
  FrameAssembler asm_;
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    asm_.Feed(std::string_view(wire).substr(i, 1));
    EXPECT_TRUE(asm_.Next().status().IsNotFound()) << "byte " << i;
    EXPECT_TRUE(asm_.mid_frame());
  }
  asm_.Feed(std::string_view(wire).substr(wire.size() - 1, 1));
  auto got = asm_.Next();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, payload);
  EXPECT_FALSE(asm_.mid_frame());
}

TEST(FrameAssemblerTest, SplitsAcrossMultipleFramesAnywhere) {
  const std::vector<std::string> payloads = {"first", "", std::string(500, 'z'),
                                             "last"};
  std::string wire;
  for (const std::string& p : payloads) wire += EncodeWireFrame(p);
  // Feed in awkward 7-byte chunks; pop frames as they complete.
  FrameAssembler asm_;
  std::vector<std::string> got;
  for (size_t off = 0; off < wire.size(); off += 7) {
    asm_.Feed(std::string_view(wire).substr(off, 7));
    for (;;) {
      auto next = asm_.Next();
      if (!next.ok()) {
        EXPECT_TRUE(next.status().IsNotFound());
        break;
      }
      got.push_back(std::move(next).value());
    }
  }
  EXPECT_EQ(got, payloads);
}

TEST(FrameAssemblerTest, CrcMismatchIsDataLossAndLatches) {
  std::string wire = EncodeWireFrame("payload to be corrupted");
  wire[kWireHeaderBytes + 3] ^= 0x20;  // flip one payload bit
  FrameAssembler asm_;
  asm_.Feed(wire);
  EXPECT_TRUE(asm_.Next().status().IsDataLoss());
  // Framing is unrecoverable on a byte stream: the error latches even if a
  // pristine frame arrives afterwards.
  asm_.Feed(EncodeWireFrame("pristine"));
  EXPECT_TRUE(asm_.Next().status().IsDataLoss());
  EXPECT_FALSE(asm_.mid_frame());
}

TEST(FrameAssemblerTest, OversizeLengthPrefixIsDataLoss) {
  FrameAssembler asm_(/*max_frame_bytes=*/64);
  asm_.Feed(EncodeWireFrame(std::string(65, 'a')));
  EXPECT_TRUE(asm_.Next().status().IsDataLoss());
}

TEST(FrameAssemblerTest, TruncatedTailReportsMidFrame) {
  const std::string wire = EncodeWireFrame("torn");
  FrameAssembler asm_;
  asm_.Feed(std::string_view(wire).substr(0, wire.size() - 1));
  EXPECT_TRUE(asm_.Next().status().IsNotFound());
  // EOF here would mean the peer died mid-write.
  EXPECT_TRUE(asm_.mid_frame());
}

// --- SocketTransport --------------------------------------------------------

TEST(SocketTransportTest, UnixPairRoundTripsBothDirections) {
  SocketPair pair = MakeUnixPair("roundtrip");
  ASSERT_TRUE(pair.client->Send("ping from client").ok());
  auto at_server = pair.server->Recv(Deadline::After(Duration::Seconds(5)));
  ASSERT_TRUE(at_server.ok()) << at_server.status().ToString();
  EXPECT_EQ(*at_server, "ping from client");

  ASSERT_TRUE(pair.server->Send("pong from server").ok());
  auto at_client = pair.client->Recv(Deadline::After(Duration::Seconds(5)));
  ASSERT_TRUE(at_client.ok()) << at_client.status().ToString();
  EXPECT_EQ(*at_client, "pong from server");
}

TEST(SocketTransportTest, UnixPairLargeFrameRoundTrips) {
  SocketPair pair = MakeUnixPair("large");
  // Several 64 KB reads long, so the receiver reassembles the frame from
  // split reads; about the size of the default socket buffer, so the send
  // may block until Recv drains it, hence the sender thread.
  const std::string big(200000, 'q');
  Status sent;
  std::thread sender([&] { sent = pair.client->Send(big); });
  auto got = pair.server->Recv(Deadline::After(Duration::Seconds(5)));
  sender.join();
  ASSERT_TRUE(sent.ok()) << sent.ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, big);
}

TEST(SocketTransportTest, RecvDeadlineExpiryIsAbortedAndRecoverable) {
  SocketPair pair = MakeUnixPair("deadline");
  auto timed_out = pair.client->Recv(Deadline::After(Duration::Millis(30)));
  EXPECT_TRUE(timed_out.status().IsAborted()) << timed_out.status().ToString();
  // A deadline expiry is a straggler, not a dead connection: the transport
  // keeps working.
  ASSERT_TRUE(pair.server->Send("late answer").ok());
  auto got = pair.client->Recv(Deadline::After(Duration::Seconds(5)));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "late answer");
}

TEST(SocketTransportTest, CleanEofAfterLastFrameIsUnavailable) {
  SocketPair pair = MakeUnixPair("eof");
  ASSERT_TRUE(pair.server->Send("final frame").ok());
  pair.server->Close();
  auto got = pair.client->Recv(Deadline::After(Duration::Seconds(5)));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "final frame");
  EXPECT_TRUE(pair.client->Recv(Deadline::After(Duration::Seconds(5)))
                  .status()
                  .IsUnavailable());
}

TEST(SocketTransportTest, EofMidFrameIsDataLoss) {
  SocketPair pair = MakeUnixPair("torn");
  const std::string wire = EncodeWireFrame("this frame will be torn");
  ASSERT_TRUE(
      pair.server->SendRaw(std::string_view(wire).substr(0, wire.size() - 3))
          .ok());
  pair.server->Close();
  EXPECT_TRUE(pair.client->Recv(Deadline::After(Duration::Seconds(5)))
                  .status()
                  .IsDataLoss());
}

TEST(SocketTransportTest, CorruptedFrameIsDataLoss) {
  SocketPair pair = MakeUnixPair("corrupt");
  std::string wire = EncodeWireFrame("bit flip incoming");
  wire[kWireHeaderBytes + 5] ^= 0x01;
  ASSERT_TRUE(pair.server->SendRaw(wire).ok());
  EXPECT_TRUE(pair.client->Recv(Deadline::After(Duration::Seconds(5)))
                  .status()
                  .IsDataLoss());
  // The latch holds: later frames on this connection are not trusted.
  ASSERT_FALSE(pair.client->Recv(Deadline::After(Duration::Millis(50))).ok());
}

TEST(SocketTransportTest, SendAfterCloseFailsUnavailable) {
  SocketPair pair = MakeUnixPair("sendclosed");
  pair.client->Close();
  EXPECT_TRUE(pair.client->closed());
  EXPECT_TRUE(pair.client->Send("into the void").IsUnavailable());
}

// --- Close-while-blocked-in-Recv (satellite: drain-then-Unavailable) --------

TEST(TransportCloseTest, InProcessLocalCloseWakesBlockedRecvConcurrent) {
  shard::TransportPair pair = shard::MakeInProcessPair(16);
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    pair.coordinator_end->Close();
  });
  // Blocks with an infinite deadline until Close() wakes it.
  EXPECT_TRUE(pair.coordinator_end->Recv().status().IsUnavailable());
  closer.join();
}

TEST(TransportCloseTest, InProcessCloseDrainsQueuedFramesFirstConcurrent) {
  constexpr int kFrames = 200;
  shard::TransportPair pair = shard::MakeInProcessPair(kFrames + 1);
  std::thread producer([&] {
    for (int i = 0; i < kFrames; ++i) {
      ASSERT_TRUE(pair.worker_end->Send("frame-" + std::to_string(i)).ok());
    }
    pair.worker_end->Close();
  });
  // The consumer races the producer's sends and the close: it must see
  // every frame sent before the close, then Unavailable — never a dropped
  // frame, never a premature wakeup.
  int received = 0;
  for (;;) {
    auto got = pair.coordinator_end->Recv();
    if (!got.ok()) {
      EXPECT_TRUE(got.status().IsUnavailable()) << got.status().ToString();
      break;
    }
    EXPECT_EQ(*got, "frame-" + std::to_string(received));
    ++received;
  }
  EXPECT_EQ(received, kFrames);
  producer.join();
}

TEST(TransportCloseTest, SocketLocalCloseWakesBlockedRecvConcurrent) {
  SocketPair pair = MakeUnixPair("wake");
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    pair.client->Close();
  });
  EXPECT_TRUE(pair.client->Recv().status().IsUnavailable());
  closer.join();
}

TEST(TransportCloseTest, SocketPeerCloseDrainsQueuedFramesFirstConcurrent) {
  constexpr int kFrames = 200;
  SocketPair pair = MakeUnixPair("drain");
  std::thread producer([&] {
    for (int i = 0; i < kFrames; ++i) {
      ASSERT_TRUE(pair.server->Send("frame-" + std::to_string(i)).ok());
    }
    pair.server->Close();
  });
  int received = 0;
  for (;;) {
    auto got = pair.client->Recv(Deadline::After(Duration::Seconds(30)));
    if (!got.ok()) {
      EXPECT_TRUE(got.status().IsUnavailable()) << got.status().ToString();
      break;
    }
    EXPECT_EQ(*got, "frame-" + std::to_string(received));
    ++received;
  }
  EXPECT_EQ(received, kFrames);
  producer.join();
}

// --- ShardService session tracking (worker-side exactly-once) ---------------

class ShardServiceTest : public ::testing::Test {
 protected:
  ShardServiceTest()
      : weights_(testutil::BuildCanonicalWeights()),
        service_(0, &catalog_, &weights_, {}) {}

  Interval Day() const {
    return {TimePoint::FromMillis(0), TimePoint::FromMillis(86400000)};
  }

  VmServiceInfo Vm(const std::string& id) const {
    VmServiceInfo vm;
    vm.vm_id = id;
    vm.service_period = Day();
    return vm;
  }

  shard::ResponseFrame Respond(const std::string& frame) {
    response_bytes_ = service_.Handle(frame);
    auto hdr = shard::DecodeResponseHeader(response_bytes_);
    EXPECT_TRUE(hdr.ok()) << hdr.status().ToString();
    return std::move(hdr).value();
  }

  shard::HelloInfo Hello(uint64_t id) {
    auto hdr = Respond(shard::EncodeHello(id));
    EXPECT_TRUE(hdr.status.ok()) << hdr.status.ToString();
    return shard::DecodeHelloInfo(hdr.reader);
  }

  void Init(uint64_t id) {
    auto hdr = Respond(shard::EncodeInit(id, Day(), Duration::Minutes(5),
                                         /*engine_shards=*/4, std::nullopt));
    ASSERT_TRUE(hdr.status.ok()) << hdr.status.ToString();
  }

  EventCatalog catalog_ = EventCatalog::BuiltIn();
  EventWeightModel weights_;
  shard::ShardService service_;
  std::string response_bytes_;
};

TEST_F(ShardServiceTest, MutationsBeforeInitFailButHelloWorks) {
  shard::HelloInfo hello = Hello(1);
  EXPECT_FALSE(hello.engine_ready);
  EXPECT_EQ(hello.last_applied, 0u);
  auto hdr = Respond(shard::EncodeRegisterVm(2, Vm("vm-a")));
  EXPECT_TRUE(hdr.status.IsFailedPrecondition()) << hdr.status.ToString();
}

TEST_F(ShardServiceTest, ExactResendReturnsIdenticalCachedBytes) {
  Init(1);
  const std::string request = shard::EncodeRegisterVm(5, Vm("vm-a"));
  const std::string first = service_.Handle(request);
  auto hdr = shard::DecodeResponseHeader(first);
  ASSERT_TRUE(hdr.ok() && hdr->status.ok());
  // The chaos layer duplicates frames on purpose; the retry of an id whose
  // response the network swallowed must get the original bytes back.
  EXPECT_EQ(service_.Handle(request), first);
  shard::HelloInfo hello = Hello(6);
  EXPECT_TRUE(hello.engine_ready);
  EXPECT_EQ(hello.last_applied, 5u);
  EXPECT_EQ(hello.num_vms, 1u);
}

TEST_F(ShardServiceTest, HistoricalDuplicateDedupsToPlainOk) {
  Init(1);
  ASSERT_TRUE(Respond(shard::EncodeRegisterVm(5, Vm("vm-a"))).status.ok());
  ASSERT_TRUE(Respond(shard::EncodeRegisterVm(6, Vm("vm-b"))).status.ok());
  // id 5 is below last_applied and no longer cached: it already executed,
  // so the dedup answer is a plain OK — and the VM is NOT registered twice.
  auto hdr = Respond(shard::EncodeRegisterVm(5, Vm("vm-a")));
  EXPECT_TRUE(hdr.status.ok()) << hdr.status.ToString();
  EXPECT_EQ(hdr.request_id, 5u);
  shard::HelloInfo hello = Hello(7);
  EXPECT_EQ(hello.last_applied, 6u);
  EXPECT_EQ(hello.num_vms, 2u);
}

TEST_F(ShardServiceTest, InitResetsSessionTrackingSoReplayExecutes) {
  Init(1);
  ASSERT_TRUE(Respond(shard::EncodeRegisterVm(5, Vm("vm-a"))).status.ok());
  // A rebuild travels with a fresh large id; the outbox replay that follows
  // reuses the ORIGINAL small ids, which must execute, not dedup.
  Init(1000);
  shard::HelloInfo hello = Hello(1001);
  EXPECT_TRUE(hello.engine_ready);
  EXPECT_EQ(hello.last_applied, 0u);
  EXPECT_EQ(hello.num_vms, 0u);  // kInit rebuilt the engine from scratch
  ASSERT_TRUE(Respond(shard::EncodeRegisterVm(5, Vm("vm-a"))).status.ok());
  hello = Hello(1002);
  EXPECT_EQ(hello.last_applied, 5u);
  EXPECT_EQ(hello.num_vms, 1u);
}

TEST_F(ShardServiceTest, MalformedFrameAnswersWithStatusNotCrash) {
  Init(1);
  const std::string garbage = "\x01\x02\x03 not a frame";
  const std::string resp = service_.Handle(garbage);
  auto hdr = shard::DecodeResponseHeader(resp);
  ASSERT_TRUE(hdr.ok()) << hdr.status().ToString();
  EXPECT_FALSE(hdr->status.ok());
}

// --- ShardServer: session resumption across reconnects ----------------------

TEST(ShardServerTest, EngineSurvivesReconnectSessionResumes) {
  EventCatalog catalog = EventCatalog::BuiltIn();
  EventWeightModel weights = testutil::BuildCanonicalWeights();
  shard::ShardService service(0, &catalog, &weights, {});
  auto listener_or = SocketListener::BindUnix(TempSocketPath("resume"));
  ASSERT_TRUE(listener_or.ok()) << listener_or.status().ToString();
  const std::string path = listener_or->path();
  shard::ShardServer server(&service, std::move(listener_or).value());
  server.Start();

  const Interval day{TimePoint::FromMillis(0), TimePoint::FromMillis(86400000)};
  const Deadline forever = Deadline::After(Duration::Seconds(30));
  std::string resp_bytes;  // keeps the frame alive for the returned reader
  auto call = [&](Transport& t, const std::string& frame) {
    shard::ResponseFrame failed;
    failed.status = Status::Unavailable("call failed");
    EXPECT_TRUE(t.Send(frame).ok());
    auto resp = t.Recv(forever);
    EXPECT_TRUE(resp.ok()) << resp.status().ToString();
    if (!resp.ok()) return failed;
    resp_bytes = std::move(resp).value();
    auto hdr = shard::DecodeResponseHeader(resp_bytes);
    EXPECT_TRUE(hdr.ok()) << hdr.status().ToString();
    if (!hdr.ok()) return failed;
    return std::move(hdr).value();
  };

  {
    auto conn = shard::ConnectUnix(path, forever);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    ASSERT_TRUE(
        call(**conn, shard::EncodeInit(1, day, Duration::Minutes(5), 4,
                                       std::nullopt))
            .status.ok());
    VmServiceInfo vm;
    vm.vm_id = "vm-a";
    vm.service_period = day;
    ASSERT_TRUE(call(**conn, shard::EncodeRegisterVm(7, vm)).status.ok());
    (*conn)->Close();
  }
  // Reconnect: the engine (and the session-tracking state) lived in the
  // service, not the connection — hello reports both intact.
  {
    auto conn = shard::ConnectUnix(path, forever);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    auto hdr = call(**conn, shard::EncodeHello(8));
    ASSERT_TRUE(hdr.status.ok()) << hdr.status.ToString();
    shard::HelloInfo hello = shard::DecodeHelloInfo(hdr.reader);
    EXPECT_TRUE(hello.engine_ready);
    EXPECT_EQ(hello.last_applied, 7u);
    EXPECT_EQ(hello.num_vms, 1u);
  }
  server.Stop();
}

// --- ProcessHost: a real child process, really killed -----------------------

/// Connect() is single-shot (a freshly spawned child may not have bound
/// yet); production wraps it in the session layer's retry policy, the test
/// in this little loop.
StatusOr<std::unique_ptr<Transport>> DialWithRetry(shard::ProcessHost& host) {
  StatusOr<std::unique_ptr<Transport>> conn =
      Status::Unavailable("never dialed");
  for (int i = 0; i < 200; ++i) {
    conn = host.Connect(Deadline::After(Duration::Seconds(1)));
    if (conn.ok()) return conn;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return conn;
}

TEST(ProcessHostTest, SpawnKill9ReapRespawn) {
  const std::string binary = SHARD_WORKER_BIN;
  ASSERT_FALSE(binary.empty()) << "SHARD_WORKER_BIN not baked in";
  shard::ProcessHost host(0, binary, TempSocketPath("prochost"), {}, nullptr);

  ASSERT_TRUE(host.Respawn().ok());
  EXPECT_TRUE(host.Alive());
  const Deadline forever = Deadline::After(Duration::Seconds(30));
  {
    auto conn = DialWithRetry(host);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    ASSERT_TRUE((*conn)->Send(shard::EncodeHello(1)).ok());
    auto resp = (*conn)->Recv(forever);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    auto hdr = shard::DecodeResponseHeader(*resp);
    ASSERT_TRUE(hdr.ok() && hdr->status.ok());
    EXPECT_FALSE(shard::DecodeHelloInfo(hdr->reader).engine_ready);
  }

  // External SIGKILL — the kernel, not us. Alive() must reap the zombie and
  // report dead.
  ASSERT_GT(host.pid(), 0);
  ASSERT_EQ(::kill(host.pid(), SIGKILL), 0);
  for (int i = 0; i < 200 && host.Alive(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_FALSE(host.Alive());

  // Supervisor restart: a respawned worker answers hello as a fresh one.
  ASSERT_TRUE(host.Respawn().ok());
  EXPECT_TRUE(host.Alive());
  {
    auto conn = DialWithRetry(host);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    ASSERT_TRUE((*conn)->Send(shard::EncodeHello(2)).ok());
    auto resp = (*conn)->Recv(forever);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    auto hdr = shard::DecodeResponseHeader(*resp);
    ASSERT_TRUE(hdr.ok() && hdr->status.ok());
    EXPECT_FALSE(shard::DecodeHelloInfo(hdr->reader).engine_ready);
  }
  host.Kill();
  EXPECT_FALSE(host.Alive());
}

}  // namespace
}  // namespace cdibot

// End-to-end tests of the serving daemon core (serve/server.h): a real
// `serve::Server` on a Unix-domain socket driven by a minimal blocking
// wire client. Covers the handshake, graph upload, concurrent-session
// digest identity, per-session cancel/deadline/budget containment,
// admission rejection and queueing, drain, and protocol-error handling.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/session.h"
#include "core/sink.h"
#include "gen/generators.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace mbe::serve {
namespace {

std::string SocketPath(const char* tag) {
  return "/tmp/pmbe_serve_test_" + std::to_string(getpid()) + "_" + tag +
         ".sock";
}

/// Minimal blocking client: one socket, framed reads. Test-only — errors
/// surface as gtest failures via the callers.
class TestClient {
 public:
  ~TestClient() { Close(); }

  bool Connect(const std::string& path) {
    fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    return connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  bool Send(const Message& message) {
    std::vector<uint8_t> frame;
    if (!EncodeMessage(message, &frame).ok()) return false;
    return SendRaw(frame);
  }

  bool SendRaw(const std::vector<uint8_t>& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      // MSG_NOSIGNAL: a server-side drop between frames must surface as a
      // failed Send, never as a SIGPIPE that kills the test binary.
      const ssize_t n = send(fd_, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Blocking framed read; nullopt on EOF or a corrupt stream.
  std::optional<Message> Read() {
    for (;;) {
      Message message;
      const util::StatusOr<bool> next = assembler_.Next(&message);
      if (!next.ok()) return {};
      if (next.value()) return message;
      uint8_t chunk[4096];
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return {};
      assembler_.Feed(std::span<const uint8_t>(chunk, static_cast<size_t>(n)));
    }
  }

  /// Reads until a message of type `want` arrives, feeding every
  /// kResultBatch passed over into `sinks` by session id. Fails the test
  /// and returns nullopt on EOF.
  std::optional<Message> ReadUntil(
      MsgType want,
      std::map<uint64_t, FingerprintSink*>* sinks = nullptr) {
    for (;;) {
      std::optional<Message> message = Read();
      if (!message.has_value()) {
        ADD_FAILURE() << "connection closed while waiting for type "
                      << static_cast<int>(want);
        return {};
      }
      if (TypeOf(*message) == want) return message;
      if (sinks != nullptr && TypeOf(*message) == MsgType::kResultBatch) {
        const auto& batch = std::get<ResultBatchMsg>(*message);
        auto it = sinks->find(batch.session_id);
        if (it != sinks->end()) it->second->EmitBatch(batch.batch);
      }
    }
  }

  void Close() {
    if (fd_ >= 0) {
      close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
  FrameAssembler assembler_;
};

/// A started server on a fresh Unix socket plus a connected, greeted
/// client.
struct Harness {
  explicit Harness(const char* tag, ServerOptions options = {})
      : path_(SocketPath(tag)) {
    options.unix_path = path_;
    server = std::make_unique<Server>(options);
  }
  ~Harness() { server->Stop(); }

  void StartAndConnect() {
    ASSERT_TRUE(server->Start().ok());
    ASSERT_TRUE(client.Connect(server_path()));
    ASSERT_TRUE(client.Send(HelloMsg{}));
    std::optional<Message> hello = client.Read();
    ASSERT_TRUE(hello.has_value());
    ASSERT_TRUE(std::holds_alternative<HelloOkMsg>(*hello));
  }

  std::string server_path() const { return path_; }

  std::unique_ptr<Server> server;
  TestClient client;

 private:
  std::string path_;
};

std::shared_ptr<const Engine> SmallEngine() {
  auto engine =
      Engine::Build(gen::ErdosRenyi(20, 20, 0.35, 9), GraphOptions{});
  EXPECT_TRUE(engine.ok());
  return std::move(engine).value();
}

/// Crown graph: K_{40,40} minus a perfect matching. It has 2^40 - 2
/// maximal bicliques, and a full enumeration must emit every one of them,
/// so no host finishes it within any test's deadline or before a cancel
/// arrives: a session on it is still running whenever the test looks.
std::shared_ptr<const Engine> EndlessEngine() {
  auto engine = Engine::Build(gen::Crown(40), GraphOptions{});
  EXPECT_TRUE(engine.ok());
  return std::move(engine).value();
}

/// Solo digest/count of `options` (default: the default session options)
/// over `engine`.
void SoloReference(const std::shared_ptr<const Engine>& engine,
                   uint64_t* digest, uint64_t* count,
                   const RunOptions& options = RunOptions{}) {
  FingerprintSink sink;
  Session session(engine, options);
  RunResult result;
  ASSERT_TRUE(session.Run(&sink, &result).ok());
  ASSERT_TRUE(result.complete());
  *digest = sink.Digest();
  *count = sink.count();
}

/// A kStartSession that holds a pool slot for as long as a test needs
/// without flooding its connection. Every maximal biclique of the crown has
/// |L| + |R| = 40, so thresholds of 21 on both sides admit none of them, yet
/// they prune too little to end the exponential search: the session emits
/// nothing and runs until it is cancelled.
StartSessionMsg SlowStart(const std::string& graph) {
  StartSessionMsg start;
  start.graph = graph;
  start.min_left = 21;
  start.min_right = 21;
  return start;
}

TEST(ServeTest, HelloHandshakeReportsPool) {
  Harness h("hello");
  ASSERT_TRUE(h.server->Start().ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(h.server_path()));
  ASSERT_TRUE(client.Send(HelloMsg{}));
  std::optional<Message> reply = client.Read();
  ASSERT_TRUE(reply.has_value());
  const auto& ok = std::get<HelloOkMsg>(*reply);
  EXPECT_EQ(ok.version, kProtocolVersion);
  EXPECT_EQ(ok.max_payload, kMaxPayloadBytes);
  EXPECT_EQ(ok.pool_threads, h.server->pool_threads());
}

TEST(ServeTest, HelloVersionMismatchClosesWithError) {
  Harness h("badhello");
  ASSERT_TRUE(h.server->Start().ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(h.server_path()));
  ASSERT_TRUE(client.Send(HelloMsg{99}));
  std::optional<Message> reply = client.Read();
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(std::holds_alternative<ErrorMsg>(*reply));
  EXPECT_FALSE(client.Read().has_value());  // server closed the connection
}

TEST(ServeTest, CorruptFrameClosesWithError) {
  Harness h("corrupt");
  ASSERT_TRUE(h.server->Start().ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(h.server_path()));
  ASSERT_TRUE(client.SendRaw({0xff, 0xff, 0xff, 0xff, 0x01}));
  std::optional<Message> reply = client.Read();
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(std::holds_alternative<ErrorMsg>(*reply));
  EXPECT_FALSE(client.Read().has_value());
}

TEST(ServeTest, UploadEnumerateMatchesLocalRun) {
  const BipartiteGraph graph = gen::ErdosRenyi(20, 20, 0.35, 9);
  uint64_t want_digest = 0, want_count = 0;
  SoloReference(SmallEngine(), &want_digest, &want_count);

  Harness h("upload");
  h.StartAndConnect();

  LoadGraphMsg load;
  load.name = "g";
  load.num_left = static_cast<uint32_t>(graph.num_left());
  load.num_right = static_cast<uint32_t>(graph.num_right());
  for (const auto& [u, v] : graph.ToEdges()) {
    load.edge_left.push_back(u);
    load.edge_right.push_back(v);
  }
  ASSERT_TRUE(h.client.Send(load));
  std::optional<Message> loaded = h.client.ReadUntil(MsgType::kLoadOk);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(std::get<LoadOkMsg>(*loaded).name, "g");
  EXPECT_EQ(std::get<LoadOkMsg>(*loaded).num_left, graph.num_left());

  StartSessionMsg start;
  start.graph = "g";
  ASSERT_TRUE(h.client.Send(start));
  std::optional<Message> started =
      h.client.ReadUntil(MsgType::kSessionStarted);
  ASSERT_TRUE(started.has_value());
  const uint64_t id = std::get<SessionStartedMsg>(*started).session_id;

  FingerprintSink sink;
  std::map<uint64_t, FingerprintSink*> sinks = {{id, &sink}};
  std::optional<Message> done =
      h.client.ReadUntil(MsgType::kSessionDone, &sinks);
  ASSERT_TRUE(done.has_value());
  const auto& d = std::get<SessionDoneMsg>(*done);
  EXPECT_EQ(d.session_id, id);
  EXPECT_EQ(d.termination, static_cast<uint8_t>(Termination::kComplete));
  EXPECT_EQ(d.results_emitted, want_count);
  EXPECT_EQ(sink.Digest(), want_digest);
  EXPECT_EQ(sink.count(), want_count);
}

TEST(ServeTest, ConcurrentSessionsDigestIdentity) {
  uint64_t want_digest = 0, want_count = 0;
  auto engine = SmallEngine();
  SoloReference(engine, &want_digest, &want_count);

  ServerOptions options;
  options.max_active_sessions = 8;
  options.max_queued_sessions = 64;
  Harness h("concurrent", options);
  h.server->registry().Put("g", engine);
  h.StartAndConnect();

  constexpr int kSessions = 12;
  StartSessionMsg start;
  start.graph = "g";
  start.batch_results = 7;  // many partial batches, exercising reassembly
  for (int i = 0; i < kSessions; ++i) ASSERT_TRUE(h.client.Send(start));

  std::map<uint64_t, std::unique_ptr<FingerprintSink>> sinks;
  std::map<uint64_t, FingerprintSink*> routes;
  int done_count = 0;
  int started = 0;
  while (done_count < kSessions) {
    std::optional<Message> message = h.client.Read();
    ASSERT_TRUE(message.has_value()) << "EOF after " << done_count;
    if (const auto* s = std::get_if<SessionStartedMsg>(&*message)) {
      sinks[s->session_id] = std::make_unique<FingerprintSink>();
      routes[s->session_id] = sinks[s->session_id].get();
      ++started;
    } else if (const auto* b = std::get_if<ResultBatchMsg>(&*message)) {
      ASSERT_TRUE(routes.count(b->session_id));
      routes[b->session_id]->EmitBatch(b->batch);
    } else if (const auto* d = std::get_if<SessionDoneMsg>(&*message)) {
      ASSERT_TRUE(sinks.count(d->session_id));
      EXPECT_EQ(d->termination,
                static_cast<uint8_t>(Termination::kComplete));
      EXPECT_EQ(sinks[d->session_id]->Digest(), want_digest)
          << "session " << d->session_id;
      EXPECT_EQ(sinks[d->session_id]->count(), want_count);
      ++done_count;
    } else {
      FAIL() << "unexpected frame type "
             << static_cast<int>(TypeOf(*message));
    }
  }
  EXPECT_EQ(started, kSessions);
}

TEST(ServeTest, CancelStopsOnlyTheTargetedSession) {
  auto small = SmallEngine();
  uint64_t want_digest = 0, want_count = 0;
  SoloReference(small, &want_digest, &want_count);

  Harness h("cancel");
  h.server->registry().Put("small", small);
  h.server->registry().Put("endless", EndlessEngine());
  h.StartAndConnect();

  StartSessionMsg endless;
  endless.graph = "endless";
  ASSERT_TRUE(h.client.Send(endless));
  std::optional<Message> started =
      h.client.ReadUntil(MsgType::kSessionStarted);
  ASSERT_TRUE(started.has_value());
  const uint64_t huge_id = std::get<SessionStartedMsg>(*started).session_id;

  StartSessionMsg start_small;
  start_small.graph = "small";
  ASSERT_TRUE(h.client.Send(start_small));
  started = h.client.ReadUntil(MsgType::kSessionStarted);
  ASSERT_TRUE(started.has_value());
  const uint64_t small_id = std::get<SessionStartedMsg>(*started).session_id;

  ASSERT_TRUE(h.client.Send(CancelSessionMsg{huge_id}));

  FingerprintSink small_sink, huge_sink;
  std::map<uint64_t, FingerprintSink*> sinks = {{small_id, &small_sink},
                                                {huge_id, &huge_sink}};
  bool huge_done = false, small_done = false;
  while (!huge_done || !small_done) {
    std::optional<Message> done =
        h.client.ReadUntil(MsgType::kSessionDone, &sinks);
    ASSERT_TRUE(done.has_value());
    const auto& d = std::get<SessionDoneMsg>(*done);
    if (d.session_id == huge_id) {
      huge_done = true;
      EXPECT_EQ(d.termination,
                static_cast<uint8_t>(Termination::kCancelled));
    } else {
      ASSERT_EQ(d.session_id, small_id);
      small_done = true;
      EXPECT_EQ(d.termination,
                static_cast<uint8_t>(Termination::kComplete));
    }
  }
  // The cancelled neighbor never corrupted the surviving session.
  EXPECT_EQ(small_sink.Digest(), want_digest);
  EXPECT_EQ(small_sink.count(), want_count);
}

TEST(ServeTest, DeadlineAndBudgetTerminatePerSession) {
  auto small = SmallEngine();
  uint64_t want_digest = 0, want_count = 0;
  SoloReference(small, &want_digest, &want_count);

  Harness h("limits");
  h.server->registry().Put("small", small);
  h.server->registry().Put("endless", EndlessEngine());
  h.StartAndConnect();

  // The deadline session cannot complete first: its graph's output alone
  // outlasts the deadline on any host.
  StartSessionMsg deadline;
  deadline.graph = "endless";
  deadline.deadline_seconds = 0.05;
  StartSessionMsg budget = SlowStart("endless");
  budget.max_memory_bytes = 1 << 12;  // 4 KiB: certain to be exceeded
  StartSessionMsg healthy;
  healthy.graph = "small";

  ASSERT_TRUE(h.client.Send(deadline));
  ASSERT_TRUE(h.client.Send(budget));
  ASSERT_TRUE(h.client.Send(healthy));

  std::map<uint64_t, uint8_t> terminations;
  int done_count = 0;
  // The reader thread admits and starts each session in send order, but
  // they end in whatever order their limits trip; classify by outcome:
  // exactly one deadline, one memory-limit, one complete.
  while (done_count < 3) {
    std::optional<Message> message = h.client.Read();
    ASSERT_TRUE(message.has_value());
    if (std::holds_alternative<SessionStartedMsg>(*message) ||
        std::holds_alternative<ResultBatchMsg>(*message)) {
      continue;  // limited sessions may emit a valid prefix; ignore it
    }
    if (const auto* d = std::get_if<SessionDoneMsg>(&*message)) {
      terminations[d->session_id] = d->termination;
      if (d->termination == static_cast<uint8_t>(Termination::kComplete)) {
        EXPECT_EQ(d->results_emitted, want_count);
      }
      ++done_count;
    }
  }
  int deadline_hits = 0, memory_hits = 0, complete_hits = 0;
  for (const auto& [id, term] : terminations) {
    if (term == static_cast<uint8_t>(Termination::kDeadline)) {
      ++deadline_hits;
    } else if (term == static_cast<uint8_t>(Termination::kMemoryLimit)) {
      ++memory_hits;
    } else if (term == static_cast<uint8_t>(Termination::kComplete)) {
      ++complete_hits;
    }
  }
  EXPECT_EQ(deadline_hits, 1);
  EXPECT_EQ(memory_hits, 1);
  EXPECT_EQ(complete_hits, 1);
}

TEST(ServeTest, EveryAlgorithmServesTheSoloResult) {
  auto small = SmallEngine();
  Harness h("algorithms");
  h.server->registry().Put("g", small);
  h.StartAndConnect();

  for (Algorithm algorithm :
       {Algorithm::kMbet, Algorithm::kMbetM, Algorithm::kMineLmbc,
        Algorithm::kMbea, Algorithm::kImbea, Algorithm::kBbk}) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    RunOptions options;
    options.algorithm = algorithm;
    uint64_t want_digest = 0, want_count = 0;
    SoloReference(small, &want_digest, &want_count, options);

    StartSessionMsg start;
    start.graph = "g";
    start.algorithm = static_cast<uint8_t>(algorithm);
    ASSERT_TRUE(h.client.Send(start));
    std::optional<Message> reply = h.client.Read();
    ASSERT_TRUE(reply.has_value());
    if (const auto* rejected = std::get_if<RejectedMsg>(&*reply)) {
      FAIL() << "rejected: " << rejected->detail;
    }
    ASSERT_TRUE(std::holds_alternative<SessionStartedMsg>(*reply));
    const uint64_t id = std::get<SessionStartedMsg>(*reply).session_id;

    FingerprintSink sink;
    std::map<uint64_t, FingerprintSink*> sinks = {{id, &sink}};
    std::optional<Message> done =
        h.client.ReadUntil(MsgType::kSessionDone, &sinks);
    ASSERT_TRUE(done.has_value());
    const auto& d = std::get<SessionDoneMsg>(*done);
    EXPECT_EQ(d.termination, static_cast<uint8_t>(Termination::kComplete));
    EXPECT_EQ(sink.Digest(), want_digest);
    EXPECT_EQ(sink.count(), want_count);
  }
}

TEST(ServeTest, UnknownGraphAndBadOptionsRejected) {
  Harness h("reject");
  h.server->registry().Put("g", SmallEngine());
  h.StartAndConnect();

  StartSessionMsg unknown;
  unknown.graph = "nope";
  ASSERT_TRUE(h.client.Send(unknown));
  std::optional<Message> reply = h.client.ReadUntil(MsgType::kRejected);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(std::get<RejectedMsg>(*reply).reason,
            static_cast<uint8_t>(RejectReason::kUnknownGraph));

  StartSessionMsg bad;
  bad.graph = "g";
  bad.algorithm = 99;
  ASSERT_TRUE(h.client.Send(bad));
  reply = h.client.ReadUntil(MsgType::kRejected);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(std::get<RejectedMsg>(*reply).reason,
            static_cast<uint8_t>(RejectReason::kBadOptions));
}

TEST(ServeTest, AdmissionLimitRejectsExcessSessions) {
  ServerOptions options;
  options.max_active_sessions = 1;
  options.max_queued_sessions = 0;
  Harness h("admission", options);
  h.server->registry().Put("endless", EndlessEngine());
  h.StartAndConnect();

  // First session takes the only slot...
  ASSERT_TRUE(h.client.Send(SlowStart("endless")));
  std::optional<Message> started =
      h.client.ReadUntil(MsgType::kSessionStarted);
  ASSERT_TRUE(started.has_value());
  const uint64_t id = std::get<SessionStartedMsg>(*started).session_id;

  // ...so the second is rejected typed, not queued invisibly.
  ASSERT_TRUE(h.client.Send(SlowStart("endless")));
  std::optional<Message> rejected = h.client.ReadUntil(MsgType::kRejected);
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ(std::get<RejectedMsg>(*rejected).reason,
            static_cast<uint8_t>(RejectReason::kTooManySessions));

  // Releasing the slot (cancel) lets a new session in. The kSessionDone
  // frame can race the slot release by a hair, so retry on rejection.
  ASSERT_TRUE(h.client.Send(CancelSessionMsg{id}));
  std::optional<Message> done = h.client.ReadUntil(MsgType::kSessionDone);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(std::get<SessionDoneMsg>(*done).session_id, id);

  uint64_t second = 0;
  for (int attempt = 0; attempt < 100 && second == 0; ++attempt) {
    ASSERT_TRUE(h.client.Send(SlowStart("endless")));
    for (;;) {
      std::optional<Message> reply = h.client.Read();
      ASSERT_TRUE(reply.has_value());
      if (const auto* s = std::get_if<SessionStartedMsg>(&*reply)) {
        second = s->session_id;
        break;
      }
      if (std::holds_alternative<RejectedMsg>(*reply)) {
        usleep(10000);
        break;
      }
    }
  }
  ASSERT_NE(second, 0u) << "slot never became available after release";
  ASSERT_TRUE(h.client.Send(CancelSessionMsg{second}));
  ASSERT_TRUE(h.client.ReadUntil(MsgType::kSessionDone).has_value());
}

/// One slot, two queue places: the admission shape the queue tests use.
ServerOptions OneSlotTwoQueued() {
  ServerOptions options;
  options.max_active_sessions = 1;
  options.max_queued_sessions = 2;
  return options;
}

/// Live counters, read in order with the frames sent before: the reader
/// handles each start's admission before it reads the next frame.
ServerInfoMsg QueryInfo(TestClient& client) {
  EXPECT_TRUE(client.Send(InfoRequestMsg{}));
  std::optional<Message> reply = client.ReadUntil(MsgType::kServerInfo);
  return reply.has_value() ? std::get<ServerInfoMsg>(*reply)
                           : ServerInfoMsg{};
}

/// Starts the SlowStart blocker that holds the only slot; returns its id.
uint64_t StartBlocker(TestClient& client) {
  EXPECT_TRUE(client.Send(SlowStart("endless")));
  std::optional<Message> started = client.ReadUntil(MsgType::kSessionStarted);
  return started.has_value()
             ? std::get<SessionStartedMsg>(*started).session_id
             : 0;
}

TEST(ServeTest, QueuedSessionsStartInFifoOrderAsSlotsFree) {
  auto small = SmallEngine();
  uint64_t want_digest = 0, want_count = 0;
  SoloReference(small, &want_digest, &want_count);

  Harness h("fifo", OneSlotTwoQueued());
  h.server->registry().Put("small", small);
  h.server->registry().Put("endless", EndlessEngine());
  h.StartAndConnect();

  const uint64_t blocker = StartBlocker(h.client);
  ASSERT_NE(blocker, 0u);
  StartSessionMsg start;
  start.graph = "small";
  ASSERT_TRUE(h.client.Send(start));  // id blocker + 1: first in queue
  ASSERT_TRUE(h.client.Send(start));  // id blocker + 2: second
  ASSERT_TRUE(h.client.Send(start));  // queue full: rejected at once
  std::optional<Message> rejected = h.client.ReadUntil(MsgType::kRejected);
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ(std::get<RejectedMsg>(*rejected).reason,
            static_cast<uint8_t>(RejectReason::kTooManySessions));
  const ServerInfoMsg info = QueryInfo(h.client);
  EXPECT_EQ(info.active_sessions, 1u);
  EXPECT_EQ(info.queued_sessions, 2u);

  // Freeing the slot starts the queued sessions one at a time, in the
  // order they were queued: each starts only after the one ahead of it
  // is done.
  ASSERT_TRUE(h.client.Send(CancelSessionMsg{blocker}));
  std::vector<std::pair<MsgType, uint64_t>> events;
  std::map<uint64_t, FingerprintSink> folds;
  std::map<uint64_t, SessionDoneMsg> dones;
  while (dones.size() < 3) {
    std::optional<Message> message = h.client.Read();
    ASSERT_TRUE(message.has_value());
    if (const auto* s = std::get_if<SessionStartedMsg>(&*message)) {
      events.emplace_back(MsgType::kSessionStarted, s->session_id);
    } else if (const auto* b = std::get_if<ResultBatchMsg>(&*message)) {
      folds[b->session_id].EmitBatch(b->batch);
    } else if (const auto* d = std::get_if<SessionDoneMsg>(&*message)) {
      events.emplace_back(MsgType::kSessionDone, d->session_id);
      dones[d->session_id] = *d;
    }
  }
  const std::vector<std::pair<MsgType, uint64_t>> want = {
      {MsgType::kSessionDone, blocker},
      {MsgType::kSessionStarted, blocker + 1},
      {MsgType::kSessionDone, blocker + 1},
      {MsgType::kSessionStarted, blocker + 2},
      {MsgType::kSessionDone, blocker + 2},
  };
  EXPECT_EQ(events, want);
  EXPECT_EQ(dones[blocker].termination,
            static_cast<uint8_t>(Termination::kCancelled));
  for (uint64_t id : {blocker + 1, blocker + 2}) {
    SCOPED_TRACE("session " + std::to_string(id));
    EXPECT_EQ(dones[id].termination,
              static_cast<uint8_t>(Termination::kComplete));
    EXPECT_GT(dones[id].queue_wait_ns, 0u);
    EXPECT_EQ(folds[id].Digest(), want_digest);
    EXPECT_EQ(folds[id].count(), want_count);
  }
}

TEST(ServeTest, DrainRejectsQueuedSessionsWhileRunningOneFinishes) {
  Harness h("drainqueue", OneSlotTwoQueued());
  h.server->registry().Put("small", SmallEngine());
  h.server->registry().Put("endless", EndlessEngine());
  h.StartAndConnect();

  const uint64_t blocker = StartBlocker(h.client);
  ASSERT_NE(blocker, 0u);
  StartSessionMsg start;
  start.graph = "small";
  ASSERT_TRUE(h.client.Send(start));
  ASSERT_TRUE(h.client.Send(start));
  EXPECT_EQ(QueryInfo(h.client).queued_sessions, 2u);

  h.server->BeginDrain();
  // Both queued sessions are refused without ever starting.
  for (int i = 0; i < 2; ++i) {
    std::optional<Message> message = h.client.Read();
    ASSERT_TRUE(message.has_value());
    ASSERT_TRUE(std::holds_alternative<RejectedMsg>(*message))
        << "frame type " << static_cast<int>(TypeOf(*message));
    EXPECT_EQ(std::get<RejectedMsg>(*message).reason,
              static_cast<uint8_t>(RejectReason::kDraining));
  }
  // The running session keeps its slot through the drain...
  const ServerInfoMsg info = QueryInfo(h.client);
  EXPECT_EQ(info.draining, 1);
  EXPECT_EQ(info.active_sessions, 1u);
  EXPECT_EQ(info.queued_sessions, 0u);
  EXPECT_FALSE(h.server->idle());

  // ...and ends with its own kSessionDone, after which the server is idle.
  ASSERT_TRUE(h.client.Send(CancelSessionMsg{blocker}));
  std::optional<Message> done = h.client.Read();
  ASSERT_TRUE(done.has_value());
  ASSERT_TRUE(std::holds_alternative<SessionDoneMsg>(*done));
  EXPECT_EQ(std::get<SessionDoneMsg>(*done).session_id, blocker);
  for (int i = 0; i < 2000 && !h.server->idle(); ++i) usleep(10000);
  EXPECT_TRUE(h.server->idle());
}

TEST(ServeTest, SessionCancelledWhileQueuedEndsOnce) {
  Harness h("cancelqueued", OneSlotTwoQueued());
  h.server->registry().Put("small", SmallEngine());
  h.server->registry().Put("endless", EndlessEngine());
  h.StartAndConnect();

  const uint64_t blocker = StartBlocker(h.client);
  ASSERT_NE(blocker, 0u);
  StartSessionMsg start;
  start.graph = "small";
  ASSERT_TRUE(h.client.Send(start));
  const uint64_t queued = blocker + 1;
  EXPECT_EQ(QueryInfo(h.client).queued_sessions, 1u);
  ASSERT_TRUE(h.client.Send(CancelSessionMsg{queued}));
  ASSERT_TRUE(h.client.Send(CancelSessionMsg{blocker}));

  std::map<uint64_t, std::vector<uint8_t>> terminations;
  int rejected = 0;
  auto read_one = [&]() -> std::optional<Message> {
    std::optional<Message> message = h.client.Read();
    if (!message.has_value()) return message;
    if (const auto* d = std::get_if<SessionDoneMsg>(&*message)) {
      terminations[d->session_id].push_back(d->termination);
    } else if (std::holds_alternative<RejectedMsg>(*message)) {
      ++rejected;
    }
    return message;
  };
  while (terminations.size() < 2) ASSERT_TRUE(read_one().has_value());
  // A session's kSessionDone is queued before its slot is released, so
  // once the server is idle every frame is queued toward the client, and
  // the Pong answering a later Ping closes the stream.
  for (int i = 0; i < 2000 && !h.server->idle(); ++i) usleep(10000);
  ASSERT_TRUE(h.server->idle());
  ASSERT_TRUE(h.client.Send(PingMsg{7}));
  for (;;) {
    std::optional<Message> message = read_one();
    ASSERT_TRUE(message.has_value());
    if (std::holds_alternative<PongMsg>(*message)) break;
  }
  EXPECT_EQ(rejected, 0);
  const std::vector<uint8_t> cancelled = {
      static_cast<uint8_t>(Termination::kCancelled)};
  EXPECT_EQ(terminations[queued], cancelled);
  EXPECT_EQ(terminations[blocker], cancelled);
}

TEST(ServeTest, DrainRejectsNewSessionsThenGoesIdle) {
  Harness h("drain");
  h.server->registry().Put("g", SmallEngine());
  h.StartAndConnect();

  h.server->BeginDrain();
  StartSessionMsg start;
  start.graph = "g";
  ASSERT_TRUE(h.client.Send(start));
  std::optional<Message> rejected = h.client.ReadUntil(MsgType::kRejected);
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ(std::get<RejectedMsg>(*rejected).reason,
            static_cast<uint8_t>(RejectReason::kDraining));
  EXPECT_TRUE(h.server->idle());
}

TEST(ServeTest, DuplicateGraphNameRejected) {
  // The registry is one flat namespace shared by every (unauthenticated)
  // client: re-registering a name must fail instead of silently swapping
  // the graph under other tenants' future sessions.
  Harness h("dupload");
  h.server->registry().Put("g", SmallEngine());
  h.StartAndConnect();

  const BipartiteGraph graph = gen::ErdosRenyi(8, 8, 0.4, 3);
  LoadGraphMsg load;
  load.name = "g";
  load.num_left = static_cast<uint32_t>(graph.num_left());
  load.num_right = static_cast<uint32_t>(graph.num_right());
  for (const auto& [u, v] : graph.ToEdges()) {
    load.edge_left.push_back(u);
    load.edge_right.push_back(v);
  }
  ASSERT_TRUE(h.client.Send(load));
  std::optional<Message> reply = h.client.Read();
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(std::holds_alternative<ErrorMsg>(*reply));
  // Load failures abandon the connection; the peer sees EOF.
  EXPECT_FALSE(h.client.Read().has_value());
}

TEST(ServeTest, SlowReaderStallsOnlyItsOwnConnection) {
  // Regression: a client that stopped reading used to block a pool worker
  // inside send() while it held the result sink's mutex; the next worker
  // then blocked on that mutex while holding the pool mutex, wedging every
  // session on the server. With the bounded outbound queue the slow
  // connection overflows its budget and fails alone.
  auto small = SmallEngine();
  uint64_t want_digest = 0, want_count = 0;
  SoloReference(small, &want_digest, &want_count);

  ServerOptions options;
  options.max_outbound_bytes = 1 << 16;  // overflow quickly
  Harness h("slowreader", options);
  h.server->registry().Put("small", small);
  h.server->registry().Put("endless", EndlessEngine());
  h.StartAndConnect();

  // The slow client starts a result-heavy session and never reads a byte.
  TestClient slow;
  ASSERT_TRUE(slow.Connect(h.server_path()));
  ASSERT_TRUE(slow.Send(HelloMsg{}));
  StartSessionMsg flood;
  flood.graph = "endless";
  flood.batch_results = 1;  // one frame per biclique: maximal backpressure
  ASSERT_TRUE(slow.Send(flood));

  // A healthy session on another connection still completes, unharmed.
  StartSessionMsg healthy;
  healthy.graph = "small";
  ASSERT_TRUE(h.client.Send(healthy));
  std::optional<Message> started =
      h.client.ReadUntil(MsgType::kSessionStarted);
  ASSERT_TRUE(started.has_value());
  const uint64_t id = std::get<SessionStartedMsg>(*started).session_id;
  FingerprintSink sink;
  std::map<uint64_t, FingerprintSink*> sinks = {{id, &sink}};
  std::optional<Message> done =
      h.client.ReadUntil(MsgType::kSessionDone, &sinks);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(std::get<SessionDoneMsg>(*done).termination,
            static_cast<uint8_t>(Termination::kComplete));
  EXPECT_EQ(sink.Digest(), want_digest);
  EXPECT_EQ(sink.count(), want_count);

  // The flooding session is cancelled by the overflow (its connection
  // fails) and releases its admission slot — it does not run forever.
  for (int i = 0; i < 2000 && !h.server->idle(); ++i) usleep(10000);
  EXPECT_TRUE(h.server->idle());
}

TEST(ServeTest, PingPongEchoesToken) {
  Harness h("ping");
  h.StartAndConnect();
  ASSERT_TRUE(h.client.Send(PingMsg{0xfeed1234}));
  std::optional<Message> pong = h.client.ReadUntil(MsgType::kPong);
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(std::get<PongMsg>(*pong).token, 0xfeed1234u);
  // The heartbeat shows up in the health counters.
  ASSERT_TRUE(h.client.Send(InfoRequestMsg{}));
  std::optional<Message> info = h.client.ReadUntil(MsgType::kServerInfo);
  ASSERT_TRUE(info.has_value());
  EXPECT_GE(std::get<ServerInfoMsg>(*info).heartbeats, 1u);
}

TEST(ServeTest, ServerInfoReportsLiveCounters) {
  Harness h("info");
  h.server->registry().Put("g", SmallEngine());
  h.StartAndConnect();

  StartSessionMsg start;
  start.graph = "g";
  ASSERT_TRUE(h.client.Send(start));
  ASSERT_TRUE(h.client.ReadUntil(MsgType::kSessionDone).has_value());

  // sessions_completed increments just after the kSessionDone frame is
  // queued; poll past the sliver of a race.
  ServerInfoMsg info;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(h.client.Send(InfoRequestMsg{}));
    std::optional<Message> reply = h.client.ReadUntil(MsgType::kServerInfo);
    ASSERT_TRUE(reply.has_value());
    info = std::get<ServerInfoMsg>(*reply);
    if (info.sessions_completed >= 1) break;
    usleep(5000);
  }
  EXPECT_EQ(info.pool_threads, h.server->pool_threads());
  EXPECT_EQ(info.graphs, 1u);
  EXPECT_EQ(info.sessions_started, 1u);
  EXPECT_EQ(info.sessions_completed, 1u);
  EXPECT_EQ(info.active_sessions, 0u);
  EXPECT_GE(info.connections_accepted, 1u);
  EXPECT_EQ(info.draining, 0);
}

// The hot-reload contract: a kReloadGraph swap binds only sessions
// created after it. A session already created — even one still waiting in
// the admission queue — finishes on the engine it resolved at creation.
TEST(ServeTest, ReloadSwapsEpochWithoutDisturbingEarlierSessions) {
  const BipartiteGraph graph_a = gen::ErdosRenyi(20, 20, 0.35, 9);
  const BipartiteGraph graph_b = gen::ErdosRenyi(20, 20, 0.35, 12);
  uint64_t digest_a = 0, count_a = 0, digest_b = 0, count_b = 0;
  {
    auto engine = Engine::Build(graph_a, GraphOptions{});
    ASSERT_TRUE(engine.ok());
    SoloReference(std::move(engine).value(), &digest_a, &count_a);
  }
  {
    auto engine = Engine::Build(graph_b, GraphOptions{});
    ASSERT_TRUE(engine.ok());
    SoloReference(std::move(engine).value(), &digest_b, &count_b);
  }
  ASSERT_NE(digest_a, digest_b);

  ServerOptions options;
  options.max_active_sessions = 1;
  options.max_queued_sessions = 64;
  Harness h("reload", options);
  h.server->registry().Put("endless", EndlessEngine());
  h.StartAndConnect();

  auto send_load = [&](const BipartiteGraph& graph, bool swap) {
    LoadGraphMsg load;
    load.name = "g";
    load.num_left = static_cast<uint32_t>(graph.num_left());
    load.num_right = static_cast<uint32_t>(graph.num_right());
    for (const auto& [u, v] : graph.ToEdges()) {
      load.edge_left.push_back(u);
      load.edge_right.push_back(v);
    }
    ASSERT_TRUE(h.client.Send(swap ? Message(ReloadGraphMsg{std::move(load)})
                                   : Message(std::move(load))));
  };
  send_load(graph_a, /*swap=*/false);
  std::optional<Message> loaded = h.client.ReadUntil(MsgType::kLoadOk);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(std::get<LoadOkMsg>(*loaded).epoch, 1u);

  // The blocker occupies the only slot; the next session on "g" resolves
  // engine A now but waits in the admission queue.
  ASSERT_TRUE(h.client.Send(SlowStart("endless")));
  std::optional<Message> started =
      h.client.ReadUntil(MsgType::kSessionStarted);
  ASSERT_TRUE(started.has_value());
  const uint64_t blocker_id = std::get<SessionStartedMsg>(*started).session_id;
  StartSessionMsg start;
  start.graph = "g";
  ASSERT_TRUE(h.client.Send(start));

  // Swap in graph B while the queued session waits.
  send_load(graph_b, /*swap=*/true);
  loaded = h.client.ReadUntil(MsgType::kLoadOk);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(std::get<LoadOkMsg>(*loaded).epoch, 2u);
  // A session created after the swap binds engine B (and also queues).
  ASSERT_TRUE(h.client.Send(start));

  // Release the slot and collect all three sessions.
  ASSERT_TRUE(h.client.Send(CancelSessionMsg{blocker_id}));
  std::map<uint64_t, FingerprintSink> folds;
  std::map<uint64_t, uint8_t> dones;
  while (dones.size() < 3) {
    std::optional<Message> message = h.client.Read();
    ASSERT_TRUE(message.has_value());
    if (const auto* batch = std::get_if<ResultBatchMsg>(&*message)) {
      folds[batch->session_id].EmitBatch(batch->batch);
    } else if (const auto* done = std::get_if<SessionDoneMsg>(&*message)) {
      dones[done->session_id] = done->termination;
    }
  }
  // Session ids are assigned in creation order: blocker, then the
  // pre-reload session (old engine), then the post-reload one (new).
  const uint64_t pre_id = blocker_id + 1;
  const uint64_t post_id = blocker_id + 2;
  ASSERT_TRUE(dones.count(pre_id));
  ASSERT_TRUE(dones.count(post_id));
  EXPECT_EQ(dones[pre_id], static_cast<uint8_t>(Termination::kComplete));
  EXPECT_EQ(dones[post_id], static_cast<uint8_t>(Termination::kComplete));
  EXPECT_EQ(folds[pre_id].Digest(), digest_a);
  EXPECT_EQ(folds[pre_id].count(), count_a);
  EXPECT_EQ(folds[post_id].Digest(), digest_b);
  EXPECT_EQ(folds[post_id].count(), count_b);
}

TEST(ServeTest, IdleTimeoutDropsOnlySessionlessConnections) {
  ServerOptions options;
  options.idle_timeout_seconds = 0.1;
  Harness h("idle", options);
  h.server->registry().Put("endless", EndlessEngine());
  h.StartAndConnect();

  // A connection with an in-flight session outlives the idle timeout.
  // The SlowStart session runs until cancelled, so the connection provably
  // holds work throughout the silent stretch.
  ASSERT_TRUE(h.client.Send(SlowStart("endless")));
  std::optional<Message> started =
      h.client.ReadUntil(MsgType::kSessionStarted);
  ASSERT_TRUE(started.has_value());
  usleep(300000);  // 3x the timeout, silent, but a session is running
  const uint64_t id = std::get<SessionStartedMsg>(*started).session_id;
  ASSERT_TRUE(h.client.Send(CancelSessionMsg{id}));
  ASSERT_TRUE(h.client.ReadUntil(MsgType::kSessionDone).has_value());

  // With no sessions left, the next silent stretch drops the connection.
  EXPECT_FALSE(h.client.Read().has_value());
  EXPECT_GE(h.server->Info().idle_disconnects, 1u);
}

TEST(ServeTest, CancelOfUnknownSessionIsIgnored) {
  Harness h("cancelnone");
  h.server->registry().Put("g", SmallEngine());
  h.StartAndConnect();
  ASSERT_TRUE(h.client.Send(CancelSessionMsg{12345}));
  // The connection stays healthy: a session on it still works.
  StartSessionMsg start;
  start.graph = "g";
  ASSERT_TRUE(h.client.Send(start));
  std::optional<Message> done = h.client.ReadUntil(MsgType::kSessionDone);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(std::get<SessionDoneMsg>(*done).termination,
            static_cast<uint8_t>(Termination::kComplete));
}

}  // namespace
}  // namespace mbe::serve

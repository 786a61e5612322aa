// Tests of the fault-tolerant client library (client/client.h): deadline
// behavior against silent peers (the hang-forever regression the library
// exists to fix), the retryable-vs-terminal error taxonomy, digest-
// verified stream acceptance under retry (exactly-once in buffered mode,
// typed truncation in streaming mode), and end-to-end operation against a
// real serve::Server. Scripted failure modes run against a raw-socket
// server that follows an explicit per-connection script.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "api/session.h"
#include "client/client.h"
#include "core/run_control.h"
#include "core/sink.h"
#include "gen/generators.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace mbe::client {
namespace {

using serve::FrameAssembler;
using serve::Message;

std::string SocketPath(const char* tag) {
  return "/tmp/pmbe_client_test_" + std::to_string(getpid()) + "_" + tag +
         ".sock";
}

ClientOptions FastOptions(const std::string& path) {
  ClientOptions options;
  options.unix_path = path;
  options.connect_timeout_seconds = 2;
  options.io_timeout_seconds = 2;
  options.max_retries = 2;
  options.backoff_initial_seconds = 0.001;
  options.backoff_max_seconds = 0.01;
  return options;
}

/// One accepted connection of the scripted server: framed reads/writes
/// over the raw fd.
struct RawConn {
  explicit RawConn(int fd) : fd(fd) {}

  std::optional<Message> Read() {
    std::vector<uint8_t> chunk(4096);
    for (;;) {
      Message message;
      auto produced = assembler.Next(&message);
      if (!produced.ok()) return {};
      if (produced.value()) return message;
      const ssize_t n = recv(fd, chunk.data(), chunk.size(), 0);
      if (n <= 0) return {};
      assembler.Feed(std::span<const uint8_t>(chunk.data(),
                                              static_cast<size_t>(n)));
    }
  }

  bool Write(const Message& message) {
    std::vector<uint8_t> frame;
    if (!serve::EncodeMessage(message, &frame).ok()) return false;
    size_t off = 0;
    while (off < frame.size()) {
      const ssize_t n =
          send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Answers the client's kHello; every healthy script starts with this.
  bool Greet() {
    std::optional<Message> hello = Read();
    if (!hello.has_value() ||
        !std::holds_alternative<serve::HelloMsg>(*hello)) {
      return false;
    }
    return Write(serve::HelloOkMsg{});
  }

  int fd;
  FrameAssembler assembler;
};

/// A raw Unix-socket server that accepts `scripts.size()` connections in
/// order and runs one script per connection. Used to stage failure modes
/// a real server never produces on purpose (silence, truncation, wrong
/// digests).
class ScriptedServer {
 public:
  using Script = std::function<void(RawConn&)>;

  ScriptedServer(std::string path, std::vector<Script> scripts)
      : path_(std::move(path)) {
    unlink(path_.c_str());
    listen_fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path_.c_str(), sizeof(addr.sun_path) - 1);
    EXPECT_EQ(bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
              0);
    EXPECT_EQ(listen(listen_fd_, 8), 0);
    thread_ = std::thread([this, scripts = std::move(scripts)]() {
      for (const Script& script : scripts) {
        const int fd = accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) return;
        RawConn conn(fd);
        script(conn);
        close(fd);
      }
    });
  }

  ~ScriptedServer() {
    shutdown(listen_fd_, SHUT_RDWR);
    close(listen_fd_);
    if (thread_.joinable()) thread_.join();
    unlink(path_.c_str());
  }

 private:
  std::string path_;
  int listen_fd_ = -1;
  std::thread thread_;
};

/// A tiny fixed result stream: two batches plus the matching
/// (digest, count) a truthful server would report.
struct FixedStream {
  FixedStream() {
    const VertexId l0[] = {1, 2};
    const VertexId r0[] = {3};
    const VertexId l1[] = {4};
    const VertexId r1[] = {5, 6};
    batch1.batch.Append(std::span<const VertexId>(l0),
                        std::span<const VertexId>(r0));
    batch2.batch.Append(std::span<const VertexId>(l1),
                        std::span<const VertexId>(r1));
    FingerprintSink fold;
    fold.EmitBatch(batch1.batch);
    fold.EmitBatch(batch2.batch);
    digest = fold.Digest();
    count = fold.count();
  }

  serve::SessionDoneMsg Done(uint64_t session_id) const {
    serve::SessionDoneMsg done;
    done.session_id = session_id;
    done.termination = static_cast<uint8_t>(Termination::kComplete);
    done.results_emitted = count;
    done.digest = digest;
    return done;
  }

  serve::ResultBatchMsg batch1;
  serve::ResultBatchMsg batch2;
  uint64_t digest = 0;
  uint64_t count = 0;
};

/// Scripts below tag frames with this session id.
constexpr uint64_t kSid = 7;

void SetSessionIds(FixedStream* stream) {
  stream->batch1.session_id = kSid;
  stream->batch2.session_id = kSid;
}

std::shared_ptr<const Engine> SmallEngine() {
  auto engine =
      Engine::Build(gen::ErdosRenyi(20, 20, 0.35, 9), GraphOptions{});
  EXPECT_TRUE(engine.ok());
  return std::move(engine).value();
}

void SoloReference(const std::shared_ptr<const Engine>& engine,
                   uint64_t* digest, uint64_t* count) {
  FingerprintSink sink;
  Session session(engine, RunOptions{});
  RunResult result;
  ASSERT_TRUE(session.Run(&sink, &result).ok());
  ASSERT_TRUE(result.complete());
  *digest = sink.Digest();
  *count = sink.count();
}

serve::LoadGraphMsg SmallLoad(const std::string& name) {
  const BipartiteGraph graph = gen::ErdosRenyi(20, 20, 0.35, 9);
  serve::LoadGraphMsg load;
  load.name = name;
  load.num_left = static_cast<uint32_t>(graph.num_left());
  load.num_right = static_cast<uint32_t>(graph.num_right());
  for (const auto& [u, v] : graph.ToEdges()) {
    load.edge_left.push_back(u);
    load.edge_right.push_back(v);
  }
  return load;
}

TEST(ClientTest, ErrorTaxonomyPartition) {
  EXPECT_TRUE(IsRetryable(ErrorKind::kConnectFailed));
  EXPECT_TRUE(IsRetryable(ErrorKind::kTimeout));
  EXPECT_TRUE(IsRetryable(ErrorKind::kConnectionLost));
  EXPECT_TRUE(IsRetryable(ErrorKind::kServerBusy));
  EXPECT_FALSE(IsRetryable(ErrorKind::kDigestMismatch));
  EXPECT_FALSE(IsRetryable(ErrorKind::kRejected));
  EXPECT_FALSE(IsRetryable(ErrorKind::kProtocol));
  EXPECT_FALSE(IsRetryable(ErrorKind::kServerError));
  EXPECT_STREQ(ErrorKindName(ErrorKind::kTruncatedStream),
               "truncated-stream");
}

TEST(ClientTest, ConnectRefusedRetriesThenFails) {
  ClientOptions options = FastOptions(SocketPath("refused"));
  options.max_retries = 2;
  Client client(options);
  EXPECT_FALSE(client.Connect().ok());
  EXPECT_EQ(client.last_error(), ErrorKind::kConnectFailed);
  EXPECT_EQ(client.retries(), 2u);
  EXPECT_FALSE(client.connected());
}

// The regression the library exists for: the old hand-rolled WireClient
// had no socket timeouts, so a server that accepted and then went silent
// hung pmbe_load forever. The Client must surface kTimeout within its
// deadline instead.
TEST(ClientTest, SilentServerTimesOutInsteadOfHanging) {
  const std::string path = SocketPath("silent");
  // The peer stays silent until the client has given up: a latch, not a
  // nap, so the server outlasts the client's deadline on any host. The
  // bounded wait only keeps a hung client from wedging the script thread
  // too (ctest's timeout reports that failure).
  std::promise<void> client_done;
  std::shared_future<void> client_gave_up = client_done.get_future().share();
  ScriptedServer server(path, {[client_gave_up](RawConn& conn) {
    // Accept, read the hello, answer nothing — a wedged peer.
    conn.Read();
    client_gave_up.wait_for(std::chrono::seconds(60));
  }});
  ClientOptions options = FastOptions(path);
  options.io_timeout_seconds = 0.2;
  options.max_retries = 0;
  Client client(options);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.Connect().ok());
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  client_done.set_value();
  EXPECT_EQ(client.last_error(), ErrorKind::kTimeout);
  EXPECT_LT(elapsed, 1.0);  // deadline'd, not waiting on the silent peer
}

TEST(ClientTest, EndToEndEnumerateVerifiesDigest) {
  serve::ServerOptions soptions;
  soptions.unix_path = SocketPath("e2e");
  serve::Server server(soptions);
  const auto engine = SmallEngine();
  ASSERT_TRUE(server.registry().Put("g", engine));
  ASSERT_TRUE(server.Start().ok());

  uint64_t want_digest = 0, want_count = 0;
  SoloReference(engine, &want_digest, &want_count);

  Client client(FastOptions(soptions.unix_path));
  ASSERT_TRUE(client.Ping().ok());
  serve::StartSessionMsg start;
  start.graph = "g";
  FingerprintSink sink;
  auto outcome = client.Enumerate(start, &sink);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome.value().attempts, 1u);
  EXPECT_EQ(outcome.value().digest, want_digest);
  EXPECT_EQ(outcome.value().done.results_emitted, want_count);
  // Buffered delivery reached the caller's sink exactly once.
  EXPECT_EQ(sink.Digest(), want_digest);
  EXPECT_EQ(sink.count(), want_count);

  auto info = client.GetServerInfo();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().pool_threads, server.pool_threads());
  EXPECT_GE(info.value().heartbeats, 1u);
  EXPECT_EQ(info.value().sessions_started, 1u);
  server.Stop();
}

TEST(ClientTest, ReloadGraphBumpsEpochAndKeepsServing) {
  serve::ServerOptions soptions;
  soptions.unix_path = SocketPath("reload");
  serve::Server server(soptions);
  ASSERT_TRUE(server.Start().ok());

  Client client(FastOptions(soptions.unix_path));
  const serve::LoadGraphMsg load = SmallLoad("g");
  auto first = client.LoadGraph(load);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().epoch, 1u);
  auto swapped = client.ReloadGraph(load);
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_EQ(swapped.value().epoch, 2u);

  serve::StartSessionMsg start;
  start.graph = "g";
  auto outcome = client.Enumerate(start, nullptr);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(static_cast<Termination>(outcome.value().done.termination),
            Termination::kComplete);
  server.Stop();
}

TEST(ClientTest, ServerBusyRejectionIsRetriedToSuccess) {
  FixedStream stream;
  SetSessionIds(&stream);
  const std::string path = SocketPath("busy");
  ScriptedServer server(
      path,
      {[](RawConn& conn) {
         ASSERT_TRUE(conn.Greet());
         ASSERT_TRUE(conn.Read().has_value());  // kStartSession
         serve::RejectedMsg busy;
         busy.reason =
             static_cast<uint8_t>(serve::RejectReason::kTooManySessions);
         busy.detail = "full";
         conn.Write(busy);
       },
       [&stream](RawConn& conn) {
         ASSERT_TRUE(conn.Greet());
         ASSERT_TRUE(conn.Read().has_value());
         conn.Write(serve::SessionStartedMsg{kSid});
         conn.Write(stream.batch1);
         conn.Write(stream.batch2);
         conn.Write(stream.Done(kSid));
       }});
  Client client(FastOptions(path));
  FingerprintSink sink;
  auto outcome = client.Enumerate(serve::StartSessionMsg{}, &sink);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome.value().attempts, 2u);
  EXPECT_EQ(sink.count(), stream.count);
  EXPECT_EQ(sink.Digest(), stream.digest);
  EXPECT_GE(client.retries(), 1u);
  EXPECT_GE(client.reconnects(), 1u);
}

TEST(ClientTest, DrainingRejectionIsTerminal) {
  const std::string path = SocketPath("draining");
  ScriptedServer server(path, {[](RawConn& conn) {
    ASSERT_TRUE(conn.Greet());
    ASSERT_TRUE(conn.Read().has_value());
    serve::RejectedMsg reject;
    reject.reason = static_cast<uint8_t>(serve::RejectReason::kDraining);
    reject.detail = "draining";
    conn.Write(reject);
  }});
  Client client(FastOptions(path));
  auto outcome = client.Enumerate(serve::StartSessionMsg{}, nullptr);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(client.last_error(), ErrorKind::kRejected);
}

// Buffered mode (default): a connection lost mid-stream discards the
// partial attempt and re-issues the query; the caller's sink sees the
// complete retried stream exactly once, never partial + complete merged.
TEST(ClientTest, MidStreamLossReissuesBufferedExactlyOnce) {
  FixedStream stream;
  SetSessionIds(&stream);
  const std::string path = SocketPath("reissue");
  ScriptedServer server(
      path,
      {[&stream](RawConn& conn) {
         ASSERT_TRUE(conn.Greet());
         ASSERT_TRUE(conn.Read().has_value());
         conn.Write(serve::SessionStartedMsg{kSid});
         conn.Write(stream.batch1);  // partial stream, then death
       },
       [&stream](RawConn& conn) {
         ASSERT_TRUE(conn.Greet());
         ASSERT_TRUE(conn.Read().has_value());
         conn.Write(serve::SessionStartedMsg{kSid});
         conn.Write(stream.batch1);
         conn.Write(stream.batch2);
         conn.Write(stream.Done(kSid));
       }});
  Client client(FastOptions(path));
  FingerprintSink sink;
  auto outcome = client.Enumerate(serve::StartSessionMsg{}, &sink);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome.value().attempts, 2u);
  // Exactly the complete stream — the discarded partial attempt's batch
  // did not leak into the fold.
  EXPECT_EQ(sink.count(), stream.count);
  EXPECT_EQ(sink.Digest(), stream.digest);
}

// Streaming mode: the partial prefix already escaped to the caller, so a
// mid-stream loss must surface as typed kTruncatedStream, not a retry
// that would merge streams.
TEST(ClientTest, StreamingModeTruncationIsTerminal) {
  FixedStream stream;
  SetSessionIds(&stream);
  const std::string path = SocketPath("truncate");
  ScriptedServer server(path, {[&stream](RawConn& conn) {
    ASSERT_TRUE(conn.Greet());
    ASSERT_TRUE(conn.Read().has_value());
    conn.Write(serve::SessionStartedMsg{kSid});
    conn.Write(stream.batch1);
  }});
  ClientOptions options = FastOptions(path);
  options.buffer_results = false;
  Client client(options);
  FingerprintSink sink;
  auto outcome = client.Enumerate(serve::StartSessionMsg{}, &sink);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(client.last_error(), ErrorKind::kTruncatedStream);
  // The delivered prefix is visible (that is the streaming contract);
  // the typed error tells the caller it is a prefix.
  EXPECT_EQ(sink.count(), 1u);
}

// A complete stream whose digest disagrees with the server's own claim
// is corruption, not weather — terminal, no retry, nothing delivered.
TEST(ClientTest, WrongDigestIsTerminalAndUndelivered) {
  FixedStream stream;
  SetSessionIds(&stream);
  const std::string path = SocketPath("digest");
  ScriptedServer server(path, {[&stream](RawConn& conn) {
    ASSERT_TRUE(conn.Greet());
    ASSERT_TRUE(conn.Read().has_value());
    conn.Write(serve::SessionStartedMsg{kSid});
    conn.Write(stream.batch1);
    conn.Write(stream.batch2);
    serve::SessionDoneMsg done = stream.Done(kSid);
    done.digest ^= 1;  // the lie
    conn.Write(done);
  }});
  Client client(FastOptions(path));
  FingerprintSink sink;
  auto outcome = client.Enumerate(serve::StartSessionMsg{}, &sink);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(client.last_error(), ErrorKind::kDigestMismatch);
  EXPECT_EQ(sink.count(), 0u);  // buffered batches were never released
}

// A peer that vanishes while the client is mid-write must surface as a
// typed connection loss, never as SIGPIPE process death (MSG_NOSIGNAL in
// the net shim).
TEST(ClientTest, PeerCloseDuringLargeWriteIsConnectionLostNotSigpipe) {
  const std::string path = SocketPath("sigpipe");
  std::promise<void> peer_closed;
  ScriptedServer server(path, {[&peer_closed](RawConn& conn) {
    ASSERT_TRUE(conn.Greet());
    // Close immediately; the client's big upload lands on a dead socket.
    shutdown(conn.fd, SHUT_RDWR);
    peer_closed.set_value();
  }});
  ClientOptions options = FastOptions(path);
  options.max_retries = 0;
  Client client(options);
  ASSERT_TRUE(client.Connect().ok());
  serve::LoadGraphMsg load = SmallLoad("big");
  // Large enough to overflow the socket buffer so send() hits the closed
  // peer for sure.
  load.num_left = 200000;
  load.num_right = 2;
  load.edge_left.clear();
  load.edge_right.clear();
  for (uint32_t i = 0; i < 200000; ++i) {
    load.edge_left.push_back(i);
    load.edge_right.push_back(i % 2);
  }
  // Upload only once the peer is gone (a latch, not a timed nap).
  ASSERT_EQ(peer_closed.get_future().wait_for(std::chrono::seconds(60)),
            std::future_status::ready);
  auto reply = client.LoadGraph(load);
  EXPECT_FALSE(reply.ok());
  EXPECT_TRUE(client.last_error() == ErrorKind::kConnectionLost ||
              client.last_error() == ErrorKind::kTimeout)
      << ErrorKindName(client.last_error());
  EXPECT_FALSE(client.connected());
}

// LoadGraph is first-wins, hence never re-sent once possibly on the
// wire; the mid-write failure above must therefore be terminal (no
// second connection is scripted — a retry would hang the test).
TEST(ClientTest, LoadGraphIsNotReissuedAfterSendFailure) {
  const std::string path = SocketPath("loadonce");
  ScriptedServer server(path, {[](RawConn& conn) {
    ASSERT_TRUE(conn.Greet());
    conn.Read();  // swallow the load, then die before kLoadOk
  }});
  ClientOptions options = FastOptions(path);
  options.max_retries = 3;
  Client client(options);
  auto reply = client.LoadGraph(SmallLoad("once"));
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(client.retries(), 0u);  // the send phase was never retried
}

}  // namespace
}  // namespace mbe::client

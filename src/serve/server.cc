#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <sys/time.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <utility>

#include "graph/bipartite_graph.h"
#include "graph/ordering.h"
#include "serve/net.h"

namespace mbe::serve {

// Internal-but-external-linkage helpers (members of Server::Connection
// must not be anonymous-namespace types, or every use trips GCC's
// -Wsubobject-linkage).
namespace internal {

/// Thread-safe ResultSink that turns the (already id-translated) emissions
/// of one session into kResultBatch frames. Shared by all pool workers of
/// the session through their per-worker BufferedSinks, so emissions arrive
/// mostly as batches. A failed write latches the sink: further emissions
/// are dropped and ShouldStop() turns true, stopping the enumeration
/// instead of computing results nobody can receive.
class WireSink : public ResultSink {
 public:
  /// `write` must be thread-safe and return false on connection failure.
  using WriteFn = std::function<bool(Message&&)>;

  WireSink(WriteFn write, uint64_t session_id, uint32_t batch_results)
      : write_(std::move(write)), batch_results_(batch_results) {
    pending_.session_id = session_id;
  }

  void Emit(std::span<const VertexId> left,
            std::span<const VertexId> right) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (failed_.load(std::memory_order_relaxed)) return;
    fingerprint_.Emit(left, right);
    pending_.batch.Append(left, right);
    if (pending_.batch.size() >= batch_results_) FlushLocked();
  }

  void EmitBatch(const BicliqueBatch& batch) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (failed_.load(std::memory_order_relaxed)) return;
    fingerprint_.EmitBatch(batch);
    for (size_t i = 0; i < batch.size(); ++i) {
      pending_.batch.Append(batch.left(i), batch.right(i));
    }
    if (pending_.batch.size() >= batch_results_) FlushLocked();
  }

  /// Lock-free: polled from pool workers on hot paths (and cached into
  /// ActiveSession::stopped), so it must never contend with an in-flight
  /// flush.
  bool ShouldStop() const override {
    return failed_.load(std::memory_order_acquire);
  }

  /// Sends the final partial batch; call before the kSessionDone frame.
  void Flush() {
    std::lock_guard<std::mutex> lock(mu_);
    FlushLocked();
  }

  /// Commutative digest over every biclique handed to this sink — the
  /// same FingerprintSink fold clients run over received batches, so
  /// SessionDoneMsg::digest matches a complete stream by construction.
  uint64_t Digest() const { return fingerprint_.Digest(); }

 private:
  /// `write_` only queues the frame onto the connection's writer thread
  /// (Connection::WriteFrame) — it cannot block on the socket, so holding
  /// `mu_` across it is safe.
  void FlushLocked() {
    if (failed_.load(std::memory_order_relaxed) || pending_.batch.size() == 0) {
      return;
    }
    const uint64_t session_id = pending_.session_id;
    if (!write_(Message(std::move(pending_)))) {
      failed_.store(true, std::memory_order_release);
    }
    pending_ = ResultBatchMsg{};
    pending_.session_id = session_id;
  }

  WriteFn write_;
  const uint32_t batch_results_;
  mutable std::mutex mu_;
  ResultBatchMsg pending_;
  FingerprintSink fingerprint_;
  std::atomic<bool> failed_{false};
};

/// One in-flight (or admission-queued) session of a connection.
struct SessionRec {
  std::shared_ptr<Session> session;
  std::unique_ptr<WireSink> sink;
};

}  // namespace internal

struct Server::Connection {
  int fd = -1;
  std::atomic<bool> dead{false};
  std::atomic<bool> finished{false};
  std::thread reader;

  /// The only thread that ever blocks in send(): the reader, whichever
  /// thread runs an admitted or rejected start, and every pool worker just
  /// enqueue frames (WriteFrame), so a client that stops reading backs up
  /// this connection's queue instead of wedging whoever produced the frame.
  std::thread writer;
  std::mutex out_mu;
  std::condition_variable out_cv;
  std::deque<std::vector<uint8_t>> outbound;  ///< guarded by out_mu
  size_t outbound_bytes = 0;                  ///< guarded by out_mu
  size_t max_outbound_bytes = 0;  ///< set before the writer starts
  bool writer_stop = false;       ///< guarded by out_mu

  std::mutex sessions_mu;
  std::map<uint64_t, std::shared_ptr<internal::SessionRec>> sessions;

  ~Connection() {
    if (reader.joinable()) reader.join();
    StopWriter();
    if (fd >= 0) ::close(fd);
  }

  /// Encodes one frame and queues it for the writer; frames are later
  /// written whole, in queue order. Never blocks on the socket. Returns
  /// false — with the connection failed — when the frame cannot be
  /// delivered: encoding failed, the connection is already dead, or the
  /// client stopped reading long enough to overflow its outbound budget.
  bool WriteFrame(const Message& message) {
    std::vector<uint8_t> frame;
    if (!EncodeMessage(message, &frame).ok()) {
      Abandon();
      return false;
    }
    bool queued = false;
    {
      std::lock_guard<std::mutex> lock(out_mu);
      // An empty queue always accepts (the writer is keeping up), so one
      // frame bigger than the whole budget cannot wedge a healthy
      // connection; the memory bound is max(budget, one frame).
      if (!dead.load(std::memory_order_acquire) &&
          (outbound.empty() ||
           outbound_bytes + frame.size() <= max_outbound_bytes)) {
        outbound_bytes += frame.size();
        outbound.push_back(std::move(frame));
        queued = true;
      }
    }
    if (!queued) {
      Abandon();
      return false;
    }
    out_cv.notify_one();
    return true;
  }

  /// Writer-thread body. Sends may block — bounded by SO_SNDTIMEO — but
  /// hold no lock any other thread needs; a failed or timed-out send fails
  /// the whole connection. Exits once StopWriter was called and the queue
  /// is drained, so already-queued final frames still reach a live peer.
  void WriterLoop() {
    for (;;) {
      std::vector<uint8_t> frame;
      {
        std::unique_lock<std::mutex> lock(out_mu);
        out_cv.wait(lock, [&] { return writer_stop || !outbound.empty(); });
        if (outbound.empty()) return;  // writer_stop and fully drained
        frame = std::move(outbound.front());
        outbound.pop_front();
        outbound_bytes -= frame.size();
      }
      size_t off = 0;
      bool sent = true;
      while (off < frame.size()) {
        const ssize_t n =
            net::Send(fd, frame.data() + off, frame.size() - off);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {  // connection error or SO_SNDTIMEO expired
          sent = false;
          break;
        }
        off += static_cast<size_t>(n);
      }
      if (!sent) {
        Abandon();
        // The rest of the queue is undeliverable, and Abandon stopped new
        // enqueues; drop it and wait out writer_stop.
        std::lock_guard<std::mutex> lock(out_mu);
        outbound.clear();
        outbound_bytes = 0;
      }
    }
  }

  /// Lets the writer drain the queued frames, then joins it. Called from
  /// the reader's exit path (the destructor's call is then a no-op).
  void StopWriter() {
    {
      std::lock_guard<std::mutex> lock(out_mu);
      writer_stop = true;
    }
    out_cv.notify_all();
    if (writer.joinable()) writer.join();
  }

  /// Queues a kRejected frame: the reason's name, then `detail` if any.
  void Reject(RejectReason reason, const std::string& detail = {}) {
    WriteFrame(RejectedMsg{static_cast<uint8_t>(reason),
                           std::string(RejectReasonName(reason)) +
                               (detail.empty() ? "" : ": " + detail)});
  }

  /// Forgets a session that was refused or has ended.
  void DropSession(uint64_t session_id) {
    std::lock_guard<std::mutex> lock(sessions_mu);
    sessions.erase(session_id);
  }

  /// Marks the connection dead and cancels all of its sessions. Idempotent.
  void Abandon() {
    dead.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> lock(sessions_mu);
    for (auto& [id, rec] : sessions) rec->session->Cancel();
  }

  /// Unblocks the reader (recv returns) without invalidating the fd —
  /// writers may still hold it; the destructor closes.
  void Close() {
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
};

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      pool_threads_(0),
      admission_(std::max<size_t>(1, options_.max_active_sessions),
                 options_.max_queued_sessions) {}

Server::~Server() { Stop(); }

util::Status Server::Start() {
  pool_threads_ = options_.pool_threads != 0
                      ? options_.pool_threads
                      : std::max(1u, std::thread::hardware_concurrency());
  pool_ = std::make_unique<SessionPool>(pool_threads_);

  if (!options_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
      return util::Status::InvalidArgument("unix socket path too long: " +
                                           options_.unix_path);
    }
    std::memcpy(addr.sun_path, options_.unix_path.c_str(),
                options_.unix_path.size() + 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return util::Status::IoError(std::string("socket: ") +
                                   std::strerror(errno));
    }
    ::unlink(options_.unix_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return util::Status::IoError("bind(" + options_.unix_path +
                                   "): " + std::strerror(errno));
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return util::Status::IoError(std::string("socket: ") +
                                   std::strerror(errno));
    }
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    // Loopback only: the protocol carries no authentication.
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options_.tcp_port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return util::Status::IoError(
          "bind(127.0.0.1:" + std::to_string(options_.tcp_port) +
          "): " + std::strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) == 0) {
      bound_tcp_port_ = ntohs(bound.sin_port);
    }
  }
  if (::listen(listen_fd_, 64) != 0) {
    return util::Status::IoError(std::string("listen: ") +
                                 std::strerror(errno));
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return util::Status::Ok();
}

void Server::BeginDrain() { admission_.StartDraining(); }

bool Server::idle() const {
  return admission_.active() == 0 && admission_.queued() == 0;
}

void Server::Stop() {
  if (stopping_.exchange(true)) return;
  // Drain first: queued starts are rejected with kDraining here, so no
  // session starts after the pool shuts down below.
  BeginDrain();
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::shared_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    connections.swap(connections_);
  }
  for (auto& conn : connections) {
    conn->Abandon();
    conn->Close();
  }
  for (auto& conn : connections) {
    if (conn->reader.joinable()) conn->reader.join();
  }
  // Every submitted session finishes here (cancelled ones as no-op
  // sweeps); done callbacks write to the now-dead connections harmlessly.
  if (pool_ != nullptr) pool_->Shutdown();
  connections.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
}

void Server::AcceptLoop() {
  for (;;) {
    const int client_fd = net::Accept(listen_fd_);
    if (client_fd < 0) {
      // ECONNABORTED: the peer (or an injected net.accept fault) gave up
      // between connect and accept — transient, keep serving.
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // Stop() shut the listener down (or it broke)
    }
    if (stopping_.load()) {
      ::close(client_fd);
      return;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_shared<Connection>();
    conn->fd = client_fd;
    conn->max_outbound_bytes = options_.max_outbound_bytes;
    if (options_.write_timeout_seconds > 0) {
      timeval timeout{};
      timeout.tv_sec = options_.write_timeout_seconds;
      ::setsockopt(client_fd, SOL_SOCKET, SO_SNDTIMEO, &timeout,
                   sizeof(timeout));
    }
    if (options_.idle_timeout_seconds > 0) {
      // The reader's recv wakes with EAGAIN after this long without
      // traffic; ConnectionLoop then drops the connection only when it
      // has no in-flight sessions.
      timeval timeout{};
      timeout.tv_sec = static_cast<time_t>(options_.idle_timeout_seconds);
      timeout.tv_usec = static_cast<suseconds_t>(
          (options_.idle_timeout_seconds - static_cast<double>(timeout.tv_sec)) *
          1e6);
      if (timeout.tv_sec == 0 && timeout.tv_usec == 0) timeout.tv_usec = 1;
      ::setsockopt(client_fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                   sizeof(timeout));
    }
    {
      std::lock_guard<std::mutex> lock(connections_mu_);
      // Reap connections whose reader already finished, so a long-lived
      // daemon doesn't accumulate one shell per past client.
      std::erase_if(connections_,
                    [](const std::shared_ptr<Connection>& old) {
                      if (!old->finished.load()) return false;
                      if (old->reader.joinable()) old->reader.join();
                      return true;
                    });
      connections_.push_back(conn);
      conn->writer = std::thread([conn] { conn->WriterLoop(); });
      conn->reader = std::thread([this, conn] { ConnectionLoop(conn); });
    }
  }
}

void Server::ConnectionLoop(std::shared_ptr<Connection> conn) {
  FrameAssembler assembler;
  std::array<uint8_t, 4096> chunk;
  bool keep_going = !stopping_.load();
  while (keep_going) {
    Message message;
    const util::StatusOr<bool> next = assembler.Next(&message);
    if (!next.ok()) {
      conn->WriteFrame(ErrorMsg{next.status().ToString()});
      break;
    }
    if (next.value()) {
      keep_going = HandleMessage(conn, std::move(message));
      continue;
    }
    const ssize_t n = net::Recv(conn->fd, chunk.data(), chunk.size());
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // SO_RCVTIMEO expired (or an injected net.read_stall). With the
      // idle timeout armed, a connection with no in-flight sessions has
      // now been silent for the whole window — drop it; one with work
      // still streaming keeps its socket.
      if (options_.idle_timeout_seconds > 0) {
        bool has_sessions;
        {
          std::lock_guard<std::mutex> lock(conn->sessions_mu);
          has_sessions = !conn->sessions.empty();
        }
        if (!has_sessions) {
          idle_disconnects_.fetch_add(1, std::memory_order_relaxed);
          break;
        }
      }
      continue;
    }
    if (n <= 0) break;  // peer closed or connection error
    assembler.Feed(std::span<const uint8_t>(chunk.data(),
                                            static_cast<size_t>(n)));
  }
  // Sessions past this point have no one to read them; queued ones are
  // cancelled too and finish as no-op sweeps once admitted.
  conn->Abandon();
  // Deliver the already-queued final frames (e.g. the kError reply), then
  // half-close so the peer sees EOF (the kError path exits this loop with
  // the socket otherwise still open). Late WriteFrame calls are no-ops
  // via the dead latch.
  conn->StopWriter();
  conn->Close();
  conn->finished.store(true);
}

bool Server::HandleMessage(const std::shared_ptr<Connection>& conn,
                           Message message) {
  if (auto* hello = std::get_if<HelloMsg>(&message)) {
    if (hello->version != kProtocolVersion) {
      conn->WriteFrame(ErrorMsg{"unsupported protocol version " +
                                std::to_string(hello->version)});
      return false;
    }
    conn->WriteFrame(
        HelloOkMsg{kProtocolVersion, kMaxPayloadBytes, pool_threads_});
    return true;
  }
  if (auto* load = std::get_if<LoadGraphMsg>(&message)) {
    HandleLoadGraph(conn, std::move(*load), /*swap=*/false);
    return !conn->dead.load();
  }
  if (auto* reload = std::get_if<ReloadGraphMsg>(&message)) {
    HandleLoadGraph(conn, std::move(reload->load), /*swap=*/true);
    return !conn->dead.load();
  }
  if (auto* start = std::get_if<StartSessionMsg>(&message)) {
    StartSession(conn, std::move(*start));
    return true;
  }
  if (auto* cancel = std::get_if<CancelSessionMsg>(&message)) {
    std::lock_guard<std::mutex> lock(conn->sessions_mu);
    auto it = conn->sessions.find(cancel->session_id);
    // Unknown ids are ignored: the session may have just finished (its
    // kSessionDone frame is racing this cancel) — both are fine.
    if (it != conn->sessions.end()) it->second->session->Cancel();
    return true;
  }
  if (auto* ping = std::get_if<PingMsg>(&message)) {
    heartbeats_.fetch_add(1, std::memory_order_relaxed);
    conn->WriteFrame(PongMsg{ping->token});
    return true;
  }
  if (std::get_if<InfoRequestMsg>(&message) != nullptr) {
    conn->WriteFrame(Info());
    return true;
  }
  // Server-to-client types bounced back (or a future message type):
  // protocol violation.
  conn->WriteFrame(ErrorMsg{"unexpected message type"});
  return false;
}

void Server::HandleLoadGraph(const std::shared_ptr<Connection>& conn,
                             LoadGraphMsg msg, bool swap) {
  auto fail = [&](const std::string& detail) {
    conn->WriteFrame(ErrorMsg{"load '" + msg.name + "': " + detail});
    conn->Abandon();
  };
  if (msg.order > static_cast<uint8_t>(VertexOrder::kRandom)) {
    fail("unknown vertex order " + std::to_string(msg.order));
    return;
  }
  // First-wins namespace (registry.h): a plain load refuses before the
  // expensive engine build — a client must not be able to swap the graph
  // under a name other tenants' future sessions resolve. kReloadGraph is
  // the deliberate swap: it skips this check and bumps the slot's epoch.
  if (!swap && registry_.Get(msg.name) != nullptr) {
    fail("graph name already registered");
    return;
  }
  std::vector<Edge> edges(msg.edge_left.size());
  for (size_t i = 0; i < edges.size(); ++i) {
    edges[i] = Edge{msg.edge_left[i], msg.edge_right[i]};
  }
  util::StatusOr<BipartiteGraph> graph = BipartiteGraph::FromEdgesChecked(
      msg.num_left, msg.num_right, std::move(edges));
  if (!graph.ok()) {
    fail(graph.status().ToString());
    return;
  }
  GraphOptions gopts;
  gopts.order = static_cast<VertexOrder>(msg.order);
  gopts.hub_first_left = msg.hub_first_left;
  gopts.auto_swap_sides = msg.auto_swap_sides;
  gopts.core_reduce = msg.core_reduce;
  gopts.min_left = msg.min_left;
  gopts.min_right = msg.min_right;
  gopts.seed = msg.seed;
  if (util::Status status = gopts.Validate(); !status.ok()) {
    fail(status.ToString());
    return;
  }
  auto engine = Engine::Build(std::move(graph).value(), gopts);
  if (!engine.ok()) {
    fail(engine.status().ToString());
    return;
  }
  LoadOkMsg ok;
  ok.name = msg.name;
  ok.num_left = static_cast<uint32_t>(engine.value()->original_num_left());
  ok.num_right = static_cast<uint32_t>(engine.value()->original_num_right());
  // Edges retained after dedup and core reduction — what sessions will
  // actually enumerate over.
  ok.num_edges = engine.value()->graph().num_edges();
  ok.build_seconds = engine.value()->build_seconds();
  if (swap) {
    ok.epoch = registry_.Swap(msg.name, std::move(engine).value());
  } else {
    if (!registry_.Put(msg.name, std::move(engine).value())) {
      fail("graph name already registered");  // raced a concurrent load
      return;
    }
    ok.epoch = registry_.GetSlot(msg.name).epoch;
  }
  conn->WriteFrame(ok);
}

ServerInfoMsg Server::Info() const {
  ServerInfoMsg info;
  info.pool_threads = pool_threads_;
  info.active_sessions = static_cast<uint32_t>(admission_.active());
  info.queued_sessions = static_cast<uint32_t>(admission_.queued());
  info.graphs = static_cast<uint32_t>(registry_.size());
  info.sessions_started =
      sessions_started_.load(std::memory_order_relaxed);
  info.sessions_completed =
      sessions_completed_.load(std::memory_order_relaxed);
  info.reloads = registry_.reloads();
  info.heartbeats = heartbeats_.load(std::memory_order_relaxed);
  info.idle_disconnects = idle_disconnects_.load(std::memory_order_relaxed);
  info.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  info.draining = admission_.draining() ? 1 : 0;
  return info;
}

void Server::StartSession(const std::shared_ptr<Connection>& conn,
                          StartSessionMsg msg) {
  Algorithm algorithm = Algorithm::kMbet;
  if (util::Status status = AlgorithmFromValue(msg.algorithm, &algorithm);
      !status.ok()) {
    conn->Reject(RejectReason::kBadOptions, status.message());
    return;
  }
  std::shared_ptr<const Engine> engine = registry_.Get(msg.graph);
  if (engine == nullptr) {
    conn->Reject(RejectReason::kUnknownGraph, "'" + msg.graph + "'");
    return;
  }
  RunOptions opts;
  opts.algorithm = algorithm;
  opts.threads = 1;  // the shared pool brings the execution threads
  opts.mbet.min_left = msg.min_left;
  opts.mbet.min_right = msg.min_right;
  opts.control.max_results = msg.max_results;
  opts.control.max_nodes_expanded = msg.max_nodes_expanded;
  opts.control.deadline_seconds = msg.deadline_seconds;
  opts.max_memory_bytes = msg.max_memory_bytes;
  if (util::Status status = opts.Validate(); !status.ok()) {
    conn->Reject(RejectReason::kBadOptions, status.ToString());
    return;
  }

  const uint64_t session_id = next_session_id_.fetch_add(1);
  const uint32_t batch_results = std::clamp<uint32_t>(msg.batch_results, 1,
                                                      4096);
  auto rec = std::make_shared<internal::SessionRec>();
  rec->session =
      std::make_shared<Session>(std::move(engine), std::move(opts),
                                session_id);
  rec->sink = std::make_unique<internal::WireSink>(
      [conn](Message&& frame) { return conn->WriteFrame(frame); },
      session_id, batch_results);

  // Register before admission so kCancelSession reaches the session even
  // while it waits in the admission queue (the session's controller
  // exists from construction, so a Cancel before Prepare stops the run).
  {
    std::lock_guard<std::mutex> lock(conn->sessions_mu);
    conn->sessions[session_id] = rec;
  }
  admission_.Admit([this, conn, rec, session_id](
                       const AdmissionController::Ticket& ticket) {
    OnAdmission(conn, rec, session_id, ticket);
  });
}

void Server::OnAdmission(const std::shared_ptr<Connection>& conn,
                         const std::shared_ptr<internal::SessionRec>& rec,
                         uint64_t session_id,
                         const AdmissionController::Ticket& ticket) {
  if (!ticket.admitted) {
    conn->Reject(ticket.reason);
    conn->DropSession(session_id);
    return;
  }
  if (ticket.queue_wait_ns > 0) {
    EnumStats wait_stats;
    wait_stats.queue_wait_ns = ticket.queue_wait_ns;
    rec->session->AddWorkerStats(wait_stats);
  }
  if (util::Status status = rec->session->Prepare(rec->sink.get());
      !status.ok()) {
    conn->Reject(RejectReason::kBadOptions, status.ToString());
    conn->DropSession(session_id);
    admission_.Release();
    return;
  }
  conn->WriteFrame(SessionStartedMsg{session_id});
  sessions_started_.fetch_add(1, std::memory_order_relaxed);
  pool_->Submit(rec->session, [this, conn, rec,
                               session_id](const RunResult& result) {
    rec->sink->Flush();  // final partial batch precedes kSessionDone
    SessionDoneMsg done;
    done.session_id = session_id;
    done.termination = static_cast<uint8_t>(result.termination);
    done.results_emitted = result.results_emitted;
    done.maximal = result.stats.maximal;
    done.nodes_expanded = result.stats.nodes_expanded;
    done.peak_charged_bytes = result.stats.peak_charged_bytes;
    done.queue_wait_ns = result.stats.queue_wait_ns;
    done.seconds = result.seconds;
    // Digest over everything flushed toward the client: a receiver whose
    // own fingerprint fold disagrees is missing (or double-counting)
    // batches and must not trust the stream.
    done.digest = rec->sink->Digest();
    done.message = result.message;
    conn->WriteFrame(done);
    conn->DropSession(session_id);
    sessions_completed_.fetch_add(1, std::memory_order_relaxed);
    admission_.Release();
  });
}

}  // namespace mbe::serve

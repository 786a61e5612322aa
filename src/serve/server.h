#ifndef PMBE_SERVE_SERVER_H_
#define PMBE_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/admission.h"
#include "serve/registry.h"
#include "api/session_pool.h"
#include "serve/wire.h"

/// \file
/// `serve::Server` — the pmbe_serve daemon core (docs/SERVICE.md).
///
/// Listens on a Unix-domain socket or a loopback TCP port, speaks the
/// serve/wire.h protocol, and multiplexes any number of client connections
/// onto one `GraphRegistry` (graphs load once, every session shares the
/// immutable engine) and one `SessionPool` (a fixed worker fleet executing
/// all sessions' subtree tasks round-robin). `AdmissionController` bounds
/// concurrency: past `max_active_sessions` running + `max_queued_sessions`
/// waiting, new sessions get a typed kRejected frame instead of latency.
///
/// Per-connection: one reader thread; session starts wait for admission on
/// short-lived helper threads (reaped as they finish) so the reader keeps
/// servicing kCancelSession frames while a start is queued. Results stream
/// back as kResultBatch frames through a bounded outbound queue drained by
/// one dedicated writer thread per connection (frames from concurrent
/// sessions interleave, each frame is atomic). Pool workers never touch
/// the socket: a slow-reading client backs up only its own queue, and
/// overflowing it (or a send timeout) fails just that connection.
///
/// Shutdown is a drain (SIGTERM handling lives in tools/pmbe_serve.cc):
/// `BeginDrain` rejects new sessions with kDraining while running ones
/// finish; once `idle()`, `Stop` closes the listener and every connection
/// and joins all threads.

namespace mbe::serve {

namespace internal {
struct SessionRec;  // server.cc: one in-flight session of a connection
}  // namespace internal

struct ServerOptions {
  /// Non-empty: listen on this Unix-domain socket path (unlinked first).
  std::string unix_path;
  /// Unix path empty: listen on 127.0.0.1:tcp_port (0 = ephemeral; read
  /// the bound port back with tcp_port()).
  uint16_t tcp_port = 0;

  /// Session-pool worker threads (0 = hardware concurrency).
  unsigned pool_threads = 0;

  /// Admission bounds: sessions running / waiting before kRejected.
  size_t max_active_sessions = 8;
  size_t max_queued_sessions = 64;

  /// Cap on bytes queued toward one connection's writer thread. A client
  /// that stops reading (TCP backpressure) fills its queue and is then
  /// dropped — its sessions cancel — instead of blocking pool workers.
  size_t max_outbound_bytes = 64u << 20;
  /// SO_SNDTIMEO on client sockets: a single blocked send() past this is
  /// treated as connection failure. 0 disables the timeout.
  unsigned write_timeout_seconds = 30;
  /// Drop a connection that has no in-flight sessions and sends nothing
  /// for this long (counted in kServerInfo::idle_disconnects). 0 disables
  /// the timeout. Fractional values work (tests use sub-second ones).
  double idle_timeout_seconds = 0;
};

class Server {
 public:
  explicit Server(ServerOptions options);

  /// Stop()s.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the accept loop and the session pool.
  util::Status Start();

  /// The bound TCP port (after Start, TCP mode only).
  uint16_t tcp_port() const { return bound_tcp_port_; }

  /// The graph store; use it to preload graphs before Start.
  GraphRegistry& registry() { return registry_; }

  unsigned pool_threads() const { return pool_threads_; }

  /// Starts rejecting new sessions (kDraining) while running and queued
  /// ones finish. Connections stay open.
  void BeginDrain();

  /// Live health counters — the kServerInfo payload, also used by
  /// pmbe_serve --stats. Safe from any thread.
  ServerInfoMsg Info() const;

  /// True when no session is running or queued.
  bool idle() const;

  /// Full shutdown: BeginDrain, close the listener and every connection,
  /// join all threads, drain the pool. Idempotent.
  void Stop();

 private:
  struct Connection;

  void AcceptLoop();
  void ConnectionLoop(std::shared_ptr<Connection> conn);
  /// Dispatches one decoded frame; returns false to close the connection.
  bool HandleMessage(const std::shared_ptr<Connection>& conn,
                     Message message);
  void StartSession(const std::shared_ptr<Connection>& conn,
                    StartSessionMsg msg);
  /// Starter-thread body: waits out admission, prepares the session, and
  /// submits it to the pool (or writes the typed rejection).
  void RunStarter(const std::shared_ptr<Connection>& conn,
                  const std::shared_ptr<internal::SessionRec>& rec,
                  uint64_t session_id);
  /// `swap` false: first-wins kLoadGraph. `swap` true: kReloadGraph —
  /// replaces (or inserts) the engine slot in a new epoch.
  void HandleLoadGraph(const std::shared_ptr<Connection>& conn,
                       LoadGraphMsg msg, bool swap);

  const ServerOptions options_;
  unsigned pool_threads_;

  GraphRegistry registry_;
  AdmissionController admission_;
  std::unique_ptr<SessionPool> pool_;

  int listen_fd_ = -1;
  uint16_t bound_tcp_port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;

  std::mutex connections_mu_;
  std::vector<std::shared_ptr<Connection>> connections_;

  std::atomic<uint64_t> next_session_id_{1};

  // kServerInfo counters (the rest of the payload is read live from the
  // admission controller and the registry).
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> heartbeats_{0};
  std::atomic<uint64_t> idle_disconnects_{0};
  std::atomic<uint64_t> sessions_started_{0};
  std::atomic<uint64_t> sessions_completed_{0};
};

}  // namespace mbe::serve

#endif  // PMBE_SERVE_SERVER_H_

#ifndef PMBE_CLIENT_CLIENT_H_
#define PMBE_CLIENT_CLIENT_H_

#include <cstdint>
#include <functional>
#include <string>

#include "core/sink.h"
#include "serve/wire.h"
#include "util/random.h"
#include "util/status.h"

/// \file
/// `mbe::Client` — the network-transparent client library for pmbe_serve
/// (docs/SERVICE.md).
///
/// Every socket operation carries a deadline (connect via non-blocking
/// connect + poll, reads and writes via SO_RCVTIMEO/SO_SNDTIMEO), so no
/// call can hang forever on a stalled peer — the bug the hand-rolled
/// WireClient in pmbe_load had. Failures are classified into a typed
/// retryable-vs-terminal taxonomy (`ErrorKind`); retryable ones are
/// retried with bounded exponential backoff and deterministic seeded
/// jitter, reconnecting as needed.
///
/// Re-issue safety per operation:
///  * `Ping` / `GetServerInfo` / `ReloadGraph` are idempotent — retried
///    freely (a reload swap applied twice lands on the same engine).
///  * `LoadGraph` is first-wins on the server, hence NOT idempotent: it
///    is never re-sent once the request frame may have reached the wire;
///    a mid-load connection loss surfaces as a terminal error the caller
///    must resolve (typically by checking whether the load took).
///  * `Enumerate` streams are verified end-to-end: the client folds every
///    received batch through the same commutative `FingerprintSink` the
///    server runs, and accepts a stream only when its fold matches
///    `SessionDoneMsg::digest` and its count matches `results_emitted`.
///    In buffered mode (default) an attempt's batches are held back and
///    delivered to the caller's sink only after that verification, so a
///    connection lost mid-stream discards the partial attempt and
///    re-issues the query — exactly-once delivery under retry, partial
///    streams never silently merged. In streaming mode
///    (`buffer_results = false`) batches reach the sink as they arrive
///    and a mid-stream loss is terminal `kTruncatedStream` instead.
///
/// Threading: a Client owns one connection and one conversation at a
/// time. It is thread-compatible, not thread-safe — use one Client per
/// thread (connection loss then affects exactly one stream, which is
/// what makes retry semantics tractable).

namespace mbe::client {

/// Typed failure classification; `IsRetryable` partitions it.
enum class ErrorKind : uint8_t {
  kNone = 0,
  kConnectFailed,    ///< retryable: connect refused / timed out
  kTimeout,          ///< retryable: a read/write deadline expired
  kConnectionLost,   ///< retryable: reset / EOF mid-conversation
  kServerBusy,       ///< retryable: kRejected(too-many-sessions)
  kTruncatedStream,  ///< stream died mid-flight; retryable only in
                     ///< buffered mode (the attempt was discarded)
  kDigestMismatch,   ///< terminal: complete stream, wrong fingerprint
  kRejected,         ///< terminal: kRejected(draining/unknown/bad-options)
  kProtocol,         ///< terminal: corrupt frame or unexpected message
  kServerError,      ///< terminal: the server sent kError and hung up
};

const char* ErrorKindName(ErrorKind kind);
bool IsRetryable(ErrorKind kind);

struct ClientOptions {
  /// Non-empty: connect to this Unix-domain socket path.
  std::string unix_path;
  /// Unix path empty: connect to 127.0.0.1:tcp_port.
  uint16_t tcp_port = 0;

  /// Deadline for one connect attempt.
  double connect_timeout_seconds = 5;
  /// SO_RCVTIMEO / SO_SNDTIMEO: deadline for every read/write syscall. A
  /// silent peer surfaces as kTimeout instead of a hang.
  double io_timeout_seconds = 30;

  /// Retries per operation on retryable errors (0 = single attempt).
  uint32_t max_retries = 4;
  /// Exponential backoff between attempts: initial * 2^n, capped, with
  /// deterministic jitter in [0.5, 1.0)× drawn from `backoff_seed`.
  double backoff_initial_seconds = 0.02;
  double backoff_max_seconds = 1.0;
  uint64_t backoff_seed = 1;

  /// Exactly-once delivery (see file comment). False = stream straight
  /// into the caller's sink; mid-stream loss is then terminal.
  bool buffer_results = true;
};

/// The verified result of one Enumerate call.
struct EnumerateOutcome {
  /// The server's final frame (termination, stats, digest).
  serve::SessionDoneMsg done;
  /// The client-side fingerprint fold — equals done.digest by the time
  /// the outcome is returned.
  uint64_t digest = 0;
  /// Attempts this query took (1 = first try succeeded).
  uint32_t attempts = 1;
};

class Client {
 public:
  explicit Client(ClientOptions options);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects and completes the kHello handshake, retrying with backoff.
  /// Idempotent: a no-op when already connected. Every other method
  /// connects on demand, so calling this first is optional.
  util::Status Connect();

  /// Drops the connection (no wire goodbye; the protocol has none).
  void Close();

  bool connected() const { return fd_ >= 0; }

  /// Heartbeat round-trip. Retryable.
  util::Status Ping();

  /// Live server counters. Retryable.
  util::StatusOr<serve::ServerInfoMsg> GetServerInfo();

  /// First-wins graph upload. NOT retried once the request may have been
  /// sent (see file comment); connect-phase failures are retried.
  util::StatusOr<serve::LoadOkMsg> LoadGraph(const serve::LoadGraphMsg& msg);

  /// Swap-semantics (re)load — idempotent, retryable. Returns the slot's
  /// new epoch in LoadOkMsg::epoch.
  util::StatusOr<serve::LoadOkMsg> ReloadGraph(
      const serve::LoadGraphMsg& msg);

  /// Runs one enumeration session, streaming results into `sink` with
  /// digest-verified completeness (see file comment). `sink` may be null
  /// when only the outcome (counts, digest) matters.
  util::StatusOr<EnumerateOutcome> Enumerate(const serve::StartSessionMsg& msg,
                                             ResultSink* sink);

  /// Classification of the most recent failure (kNone after a success).
  ErrorKind last_error() const { return last_error_; }

  /// Lifetime telemetry: reconnects performed and operation retries
  /// (attempts beyond each operation's first).
  uint64_t reconnects() const { return reconnects_; }
  uint64_t retries() const { return retries_; }

 private:
  /// One connect attempt: socket + deadline'd connect + hello handshake.
  util::Status ConnectOnce();
  /// Connect with the retry/backoff loop (used by Connect and the
  /// per-operation ensure-connected paths).
  util::Status EnsureConnected();

  /// Sends one encoded frame; classifies failures and closes on them.
  util::Status SendFrame(const serve::Message& message);
  /// Receives the next complete message; classifies failures and closes
  /// on them.
  util::StatusOr<serve::Message> RecvMessage();

  /// Sleeps the backoff for `attempt` (0-based) with deterministic jitter.
  void Backoff(uint32_t attempt);

  /// The one retry loop of every operation: connect on demand, run
  /// `attempt` over the live connection, and on a retryable failure back
  /// off and go again, up to `max_retries` times. `attempt` clears
  /// `*may_retry` to make its failure terminal whatever its kind (a
  /// first-wins load that may have reached the wire; a truncated stream
  /// in streaming mode).
  util::Status Retry(
      const std::function<util::Status(bool* may_retry)>& attempt);

  /// Builds a status for `kind`, records it, and closes the connection
  /// when the failure implies the stream state is unknown.
  util::Status Fail(ErrorKind kind, const std::string& detail);

  util::StatusOr<serve::LoadOkMsg> LoadLike(const serve::LoadGraphMsg& msg,
                                            bool swap);
  util::StatusOr<EnumerateOutcome> EnumerateOnce(
      const serve::StartSessionMsg& msg, ResultSink* sink);

  const ClientOptions options_;
  int fd_ = -1;
  serve::FrameAssembler assembler_;
  util::Rng backoff_rng_;
  ErrorKind last_error_ = ErrorKind::kNone;
  uint64_t reconnects_ = 0;
  uint64_t retries_ = 0;
  /// Connects completed over the client's lifetime (first one included).
  uint64_t connects_ = 0;
};

}  // namespace mbe::client

#endif  // PMBE_CLIENT_CLIENT_H_

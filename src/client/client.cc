#include "client/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "serve/net.h"

namespace mbe::client {

namespace {

timeval ToTimeval(double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec =
      static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) *
                               1e6);
  if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1;
  return tv;
}

}  // namespace

const char* ErrorKindName(ErrorKind kind) {
  switch (kind) {
    case ErrorKind::kNone:
      return "none";
    case ErrorKind::kConnectFailed:
      return "connect-failed";
    case ErrorKind::kTimeout:
      return "timeout";
    case ErrorKind::kConnectionLost:
      return "connection-lost";
    case ErrorKind::kServerBusy:
      return "server-busy";
    case ErrorKind::kTruncatedStream:
      return "truncated-stream";
    case ErrorKind::kDigestMismatch:
      return "digest-mismatch";
    case ErrorKind::kRejected:
      return "rejected";
    case ErrorKind::kProtocol:
      return "protocol";
    case ErrorKind::kServerError:
      return "server-error";
  }
  return "?";
}

bool IsRetryable(ErrorKind kind) {
  switch (kind) {
    case ErrorKind::kConnectFailed:
    case ErrorKind::kTimeout:
    case ErrorKind::kConnectionLost:
    case ErrorKind::kServerBusy:
      return true;
    // kTruncatedStream retryability depends on buffering; Enumerate
    // handles it explicitly rather than through this predicate.
    default:
      return false;
  }
}

Client::Client(ClientOptions options)
    : options_(std::move(options)), backoff_rng_(options_.backoff_seed) {}

Client::~Client() { Close(); }

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  assembler_ = serve::FrameAssembler();
}

util::Status Client::Fail(ErrorKind kind, const std::string& detail) {
  last_error_ = kind;
  // Any failure past this point leaves the stream position unknown (a
  // half-read frame, a half-written request); the connection cannot be
  // reused, only re-established.
  Close();
  const std::string text =
      std::string("client ") + ErrorKindName(kind) + ": " + detail;
  switch (kind) {
    case ErrorKind::kRejected:
    case ErrorKind::kProtocol:
      return util::Status::InvalidArgument(text);
    default:
      return util::Status::IoError(text);
  }
}

util::Status Client::ConnectOnce() {
  Close();
  sockaddr_un un{};
  sockaddr_in in{};
  sockaddr* addr = nullptr;
  socklen_t addr_len = 0;
  int family = AF_UNIX;
  if (!options_.unix_path.empty()) {
    un.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(un.sun_path)) {
      return util::Status::InvalidArgument("unix socket path too long: " +
                                           options_.unix_path);
    }
    std::memcpy(un.sun_path, options_.unix_path.c_str(),
                options_.unix_path.size() + 1);
    addr = reinterpret_cast<sockaddr*>(&un);
    addr_len = sizeof(un);
  } else {
    family = AF_INET;
    in.sin_family = AF_INET;
    in.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    in.sin_port = htons(options_.tcp_port);
    addr = reinterpret_cast<sockaddr*>(&in);
    addr_len = sizeof(in);
  }
  const int fd = ::socket(family, SOCK_STREAM, 0);
  if (fd < 0) {
    return Fail(ErrorKind::kConnectFailed,
                std::string("socket: ") + std::strerror(errno));
  }
  // Deadline'd connect: non-blocking connect + poll, then back to
  // blocking with per-syscall timeouts. A plain blocking connect to a
  // dead-but-routed peer can wedge for minutes.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, addr, addr_len);
  if (rc != 0 && errno == EINPROGRESS) {
    pollfd pfd{fd, POLLOUT, 0};
    const int timeout_ms =
        static_cast<int>(options_.connect_timeout_seconds * 1000);
    rc = ::poll(&pfd, 1, timeout_ms > 0 ? timeout_ms : 1);
    if (rc == 1) {
      int err = 0;
      socklen_t err_len = sizeof(err);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len);
      rc = err == 0 ? 0 : (errno = err, -1);
    } else {
      errno = ETIMEDOUT;
      rc = -1;
    }
  }
  if (rc != 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    return Fail(ErrorKind::kConnectFailed, "connect: " + detail);
  }
  ::fcntl(fd, F_SETFL, flags);
  if (options_.io_timeout_seconds > 0) {
    const timeval tv = ToTimeval(options_.io_timeout_seconds);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  fd_ = fd;

  // Version handshake. A server speaking another protocol version replies
  // kError and hangs up — terminal, not worth retrying.
  if (util::Status status = SendFrame(serve::HelloMsg{}); !status.ok()) {
    return status;
  }
  util::StatusOr<serve::Message> reply = RecvMessage();
  if (!reply.ok()) return reply.status();
  if (const auto* err = std::get_if<serve::ErrorMsg>(&reply.value())) {
    return Fail(ErrorKind::kServerError, err->detail);
  }
  const auto* ok = std::get_if<serve::HelloOkMsg>(&reply.value());
  if (ok == nullptr) {
    return Fail(ErrorKind::kProtocol, "expected kHelloOk after kHello");
  }
  if (ok->version != serve::kProtocolVersion) {
    return Fail(ErrorKind::kProtocol,
                "server speaks protocol v" + std::to_string(ok->version) +
                    ", client v" + std::to_string(serve::kProtocolVersion));
  }
  ++connects_;
  if (connects_ > 1) ++reconnects_;
  last_error_ = ErrorKind::kNone;
  return util::Status::Ok();
}

void Client::Backoff(uint32_t attempt) {
  double delay = options_.backoff_initial_seconds;
  for (uint32_t i = 0; i < attempt && delay < options_.backoff_max_seconds;
       ++i) {
    delay *= 2;
  }
  if (delay > options_.backoff_max_seconds) {
    delay = options_.backoff_max_seconds;
  }
  // Deterministic jitter in [0.5, 1.0)×: spreads a thundering herd of
  // reconnecting workers while keeping runs reproducible in the seed.
  const double jitter =
      0.5 + 0.5 * (static_cast<double>(backoff_rng_.Next() >> 11) * 0x1.0p-53);
  std::this_thread::sleep_for(
      std::chrono::duration<double>(delay * jitter));
}

util::Status Client::EnsureConnected() {
  if (connected()) return util::Status::Ok();
  util::Status status = ConnectOnce();
  for (uint32_t attempt = 0; !status.ok() && IsRetryable(last_error_) &&
                             attempt < options_.max_retries;
       ++attempt) {
    ++retries_;
    Backoff(attempt);
    status = ConnectOnce();
  }
  return status;
}

util::Status Client::Connect() { return EnsureConnected(); }

util::Status Client::SendFrame(const serve::Message& message) {
  std::vector<uint8_t> frame;
  if (util::Status status = serve::EncodeMessage(message, &frame);
      !status.ok()) {
    return Fail(ErrorKind::kProtocol, status.ToString());
  }
  size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n =
        serve::net::Send(fd_, frame.data() + off, frame.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return Fail(ErrorKind::kTimeout, "send deadline expired");
    }
    if (n <= 0) {
      return Fail(ErrorKind::kConnectionLost,
                  std::string("send: ") + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return util::Status::Ok();
}

util::StatusOr<serve::Message> Client::RecvMessage() {
  std::array<uint8_t, 4096> chunk;
  for (;;) {
    serve::Message message;
    util::StatusOr<bool> produced = assembler_.Next(&message);
    if (!produced.ok()) {
      return Fail(ErrorKind::kProtocol, produced.status().ToString());
    }
    if (produced.value()) return message;
    const ssize_t n = serve::net::Recv(fd_, chunk.data(), chunk.size());
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return Fail(ErrorKind::kTimeout, "read deadline expired");
    }
    if (n < 0) {
      return Fail(ErrorKind::kConnectionLost,
                  std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) {
      return Fail(ErrorKind::kConnectionLost, "peer closed the connection");
    }
    assembler_.Feed(std::span<const uint8_t>(chunk.data(),
                                             static_cast<size_t>(n)));
  }
}

util::Status Client::Retry(
    const std::function<util::Status(bool* may_retry)>& attempt) {
  for (uint32_t n = 0;; ++n) {
    util::Status status = EnsureConnected();
    bool may_retry = true;
    if (status.ok()) {
      status = attempt(&may_retry);
      if (status.ok()) {
        last_error_ = ErrorKind::kNone;
        return status;
      }
    }
    if (!may_retry || !IsRetryable(last_error_) || n >= options_.max_retries) {
      return status;
    }
    ++retries_;
    Backoff(n);
  }
}

util::Status Client::Ping() {
  const uint64_t token = backoff_rng_.Next();
  return Retry([&](bool*) -> util::Status {
    PMBE_RETURN_IF_ERROR(SendFrame(serve::PingMsg{token}));
    util::StatusOr<serve::Message> reply = RecvMessage();
    PMBE_RETURN_IF_ERROR(reply.status());
    const auto* pong = std::get_if<serve::PongMsg>(&reply.value());
    if (pong == nullptr) {
      return Fail(ErrorKind::kProtocol, "expected kPong after kPing");
    }
    if (pong->token != token) {
      return Fail(ErrorKind::kProtocol, "kPong echoed a wrong token");
    }
    return util::Status::Ok();
  });
}

util::StatusOr<serve::ServerInfoMsg> Client::GetServerInfo() {
  serve::ServerInfoMsg info;
  PMBE_RETURN_IF_ERROR(Retry([&](bool*) -> util::Status {
    PMBE_RETURN_IF_ERROR(SendFrame(serve::InfoRequestMsg{}));
    util::StatusOr<serve::Message> reply = RecvMessage();
    PMBE_RETURN_IF_ERROR(reply.status());
    const auto* got = std::get_if<serve::ServerInfoMsg>(&reply.value());
    if (got == nullptr) {
      return Fail(ErrorKind::kProtocol,
                  "expected kServerInfo after kInfoRequest");
    }
    info = *got;
    return util::Status::Ok();
  }));
  return info;
}

util::StatusOr<serve::LoadOkMsg> Client::LoadLike(
    const serve::LoadGraphMsg& msg, bool swap) {
  serve::LoadOkMsg loaded;
  PMBE_RETURN_IF_ERROR(Retry([&](bool* may_retry) -> util::Status {
    // First-wins loads are not idempotent: once the request may have
    // reached the wire, a blind re-send could hit "already registered"
    // against our own half-applied load. Surface the failure instead.
    *may_retry = swap;
    PMBE_RETURN_IF_ERROR(swap ? SendFrame(serve::ReloadGraphMsg{msg})
                              : SendFrame(serve::Message{msg}));
    util::StatusOr<serve::Message> reply = RecvMessage();
    PMBE_RETURN_IF_ERROR(reply.status());
    if (const auto* err = std::get_if<serve::ErrorMsg>(&reply.value())) {
      return Fail(ErrorKind::kServerError, err->detail);
    }
    const auto* ok = std::get_if<serve::LoadOkMsg>(&reply.value());
    if (ok == nullptr) return Fail(ErrorKind::kProtocol, "expected kLoadOk");
    loaded = *ok;
    return util::Status::Ok();
  }));
  return loaded;
}

util::StatusOr<serve::LoadOkMsg> Client::LoadGraph(
    const serve::LoadGraphMsg& msg) {
  return LoadLike(msg, /*swap=*/false);
}

util::StatusOr<serve::LoadOkMsg> Client::ReloadGraph(
    const serve::LoadGraphMsg& msg) {
  return LoadLike(msg, /*swap=*/true);
}

util::StatusOr<EnumerateOutcome> Client::EnumerateOnce(
    const serve::StartSessionMsg& msg, ResultSink* sink) {
  PMBE_RETURN_IF_ERROR(SendFrame(serve::Message{msg}));

  // Await admission.
  uint64_t session_id = 0;
  {
    util::StatusOr<serve::Message> reply = RecvMessage();
    PMBE_RETURN_IF_ERROR(reply.status());
    if (const auto* rejected = std::get_if<serve::RejectedMsg>(&reply.value())) {
      const auto reason = static_cast<serve::RejectReason>(rejected->reason);
      // Backpressure is retryable — the slot shortage passes; every other
      // rejection (draining, unknown graph, bad options) is a fact about
      // the request or the server's lifecycle that retrying cannot fix.
      const ErrorKind kind = reason == serve::RejectReason::kTooManySessions
                                 ? ErrorKind::kServerBusy
                                 : ErrorKind::kRejected;
      // Rejection leaves the connection healthy; Fail closes it anyway,
      // which is correct for kRejected and harmless for kServerBusy (the
      // retry reconnects).
      return Fail(kind, rejected->detail);
    }
    if (const auto* err = std::get_if<serve::ErrorMsg>(&reply.value())) {
      return Fail(ErrorKind::kServerError, err->detail);
    }
    const auto* started = std::get_if<serve::SessionStartedMsg>(&reply.value());
    if (started == nullptr) {
      return Fail(ErrorKind::kProtocol, "expected kSessionStarted");
    }
    session_id = started->session_id;
  }

  // Stream: fold every batch through the verification fingerprint; hold
  // batches back (buffered mode) or forward immediately (streaming mode).
  FingerprintSink fingerprint;
  std::vector<BicliqueBatch> held;
  for (;;) {
    util::StatusOr<serve::Message> reply = RecvMessage();
    PMBE_RETURN_IF_ERROR(reply.status());
    if (auto* batch = std::get_if<serve::ResultBatchMsg>(&reply.value())) {
      if (batch->session_id != session_id) {
        return Fail(ErrorKind::kProtocol, "kResultBatch for a foreign session");
      }
      fingerprint.EmitBatch(batch->batch);
      if (options_.buffer_results) {
        held.push_back(std::move(batch->batch));
      } else if (sink != nullptr) {
        sink->EmitBatch(batch->batch);
      }
      continue;
    }
    if (const auto* done = std::get_if<serve::SessionDoneMsg>(&reply.value())) {
      if (done->session_id != session_id) {
        return Fail(ErrorKind::kProtocol, "kSessionDone for a foreign session");
      }
      // The completeness gate: the server's digest covers everything it
      // streamed; our fold covers everything we received. TCP cannot
      // reorder, so any disagreement means lost or duplicated batches —
      // never deliver such a stream.
      if (fingerprint.Digest() != done->digest ||
          fingerprint.count() != done->results_emitted) {
        return Fail(ErrorKind::kDigestMismatch,
                    "received " + std::to_string(fingerprint.count()) +
                        " results, server reports " +
                        std::to_string(done->results_emitted));
      }
      if (options_.buffer_results && sink != nullptr) {
        for (const BicliqueBatch& b : held) sink->EmitBatch(b);
      }
      EnumerateOutcome outcome;
      outcome.done = *done;
      outcome.digest = fingerprint.Digest();
      last_error_ = ErrorKind::kNone;
      return outcome;
    }
    if (const auto* err = std::get_if<serve::ErrorMsg>(&reply.value())) {
      return Fail(ErrorKind::kServerError, err->detail);
    }
    return Fail(ErrorKind::kProtocol, "unexpected frame mid-stream");
  }
}

util::StatusOr<EnumerateOutcome> Client::Enumerate(
    const serve::StartSessionMsg& msg, ResultSink* sink) {
  EnumerateOutcome result;
  uint32_t attempts = 0;
  PMBE_RETURN_IF_ERROR(Retry([&](bool* may_retry) -> util::Status {
    ++attempts;
    util::StatusOr<EnumerateOutcome> outcome = EnumerateOnce(msg, sink);
    if (outcome.ok()) {
      result = std::move(outcome).value();
      return util::Status::Ok();
    }
    // A connection that died mid-stream truncated the attempt. In
    // buffered mode nothing reached the caller's sink, so a re-issue is
    // safe; in streaming mode a partial prefix already escaped — surface
    // the typed truncation instead of merging streams.
    if ((last_error_ == ErrorKind::kTimeout ||
         last_error_ == ErrorKind::kConnectionLost) &&
        !options_.buffer_results) {
      *may_retry = false;
      last_error_ = ErrorKind::kTruncatedStream;
      return util::Status::IoError(std::string("client truncated-stream: ") +
                                   outcome.status().ToString());
    }
    return outcome.status();
  }));
  result.attempts = attempts;
  return result;
}

}  // namespace mbe::client

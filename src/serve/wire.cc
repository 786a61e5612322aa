#include "serve/wire.h"

#include <array>
#include <cstring>
#include <type_traits>
#include <utility>

namespace mbe::serve {

namespace {

/// Little-endian primitive writer appending to a byte vector. It takes the
/// same calls as the Reader, so one field list (Fields below) drives both.
/// A value the Reader would reject fails the encode instead of producing a
/// frame the peer refuses: the first failure latches into status().
class Writer {
 public:
  explicit Writer(std::vector<uint8_t>* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(v); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) out_->push_back((v >> (8 * i)) & 0xff);
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) out_->push_back((v >> (8 * i)) & 0xff);
  }
  void F64(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(const std::string& s, size_t max_bytes) {
    if (s.size() > max_bytes) {
      Fail("string field exceeds " + std::to_string(max_bytes) + " bytes");
      return;
    }
    U32(static_cast<uint32_t>(s.size()));
    out_->insert(out_->end(), s.begin(), s.end());
  }
  void Ids(std::span<const VertexId> ids) {
    for (VertexId id : ids) U32(id);
  }

  void Fail(std::string what) {
    if (error_.empty()) error_ = std::move(what);
  }
  util::Status status() const {
    return error_.empty() ? util::Status::Ok()
                          : util::Status::InvalidArgument(error_);
  }

 private:
  std::vector<uint8_t>* out_;
  std::string error_;
};

/// Bounds-checked little-endian reader. Overruns latch the error flag and
/// read zeros; the caller checks status() once at the end instead of per
/// field.
class Reader {
 public:
  explicit Reader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  void U8(uint8_t& v) { v = Need(1) ? bytes_[pos_++] : 0; }
  /// Strict bool: only 0 and 1 are valid encodings. Anything else would
  /// decode to a message that re-encodes differently, breaking the
  /// canonical-encoding guarantee the fuzzer relies on.
  void Bool(bool& v) {
    uint8_t byte = 0;
    U8(byte);
    if (byte > 1) ok_ = false;
    v = byte != 0;
  }
  void U32(uint32_t& v) {
    v = 0;
    if (!Need(4)) return;
    for (int i = 0; i < 4; ++i) v |= uint32_t{bytes_[pos_ + i]} << (8 * i);
    pos_ += 4;
  }
  void U64(uint64_t& v) {
    v = 0;
    if (!Need(8)) return;
    for (int i = 0; i < 8; ++i) v |= uint64_t{bytes_[pos_ + i]} << (8 * i);
    pos_ += 8;
  }
  void F64(double& v) {
    uint64_t bits = 0;
    U64(bits);
    std::memcpy(&v, &bits, sizeof(v));
  }
  void Str(std::string& s, size_t max_bytes) {
    uint32_t n = 0;
    U32(n);
    if (n > max_bytes || !Need(n)) {
      ok_ = false;
      s.clear();
      return;
    }
    s.assign(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
  }
  /// Reads `count` ids into `ids`, each strictly below `bound` (bound 0
  /// skips the range check — used where the bound is carried elsewhere).
  void Ids(std::vector<VertexId>& ids, size_t count, uint32_t bound) {
    ids.clear();
    if (!Need(count * 4)) return;
    ids.resize(count);
    for (VertexId& id : ids) {
      U32(id);
      if (bound != 0 && id >= bound) ok_ = false;
    }
  }

  /// Structural failure with a reason; the first one is reported.
  void Fail(std::string what) {
    ok_ = false;
    if (error_.empty()) error_ = std::move(what);
  }
  bool ok() const { return ok_; }
  size_t remaining() const { return bytes_.size() - pos_; }
  /// Ok only when every read fit and the payload is consumed exactly.
  util::Status status() const {
    if (!error_.empty()) return util::Status::CorruptData(error_);
    if (!ok_ || pos_ != bytes_.size()) {
      return util::Status::CorruptData("payload has trailing or missing bytes");
    }
    return util::Status::Ok();
  }

 private:
  bool Need(size_t n) {
    if (!ok_ || bytes_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

// The two variable-length bodies. Each direction is written out because
// the decoder checks structure the encoder cannot get wrong (and vice
// versa); both still go through the Writer/Reader primitives.

/// Edge arrays of kLoadGraph / kReloadGraph: a u64 count, then the left
/// ids, then the right ids.
void Edges(Writer& w, const LoadGraphMsg& m) {
  if (m.edge_left.size() != m.edge_right.size()) {
    w.Fail("kLoadGraph: edge_left/edge_right size mismatch (" +
           std::to_string(m.edge_left.size()) + " vs " +
           std::to_string(m.edge_right.size()) + ")");
    return;
  }
  w.U64(m.edge_left.size());
  w.Ids(m.edge_left);
  w.Ids(m.edge_right);
}

void Edges(Reader& r, LoadGraphMsg& m) {
  uint64_t edges = 0;
  r.U64(edges);
  // Each edge is two u32 ids: an honest count fills the remaining
  // payload exactly, so a corrupt count cannot drive a giant reserve.
  if (!r.ok() || r.remaining() % 8 != 0 || edges != r.remaining() / 8) {
    r.Fail("kLoadGraph: edge count mismatch");
    return;
  }
  if (edges > 0 && (m.num_left == 0 || m.num_right == 0)) {
    r.Fail("kLoadGraph: edges on an empty side");
    return;
  }
  r.Ids(m.edge_left, edges, m.num_left);
  r.Ids(m.edge_right, edges, m.num_right);
  if (!r.ok()) r.Fail("kLoadGraph: edge id out of range");
}

/// Entries of kResultBatch: a u32 count, then per biclique its two side
/// lengths and ids.
void Entries(Writer& w, const BicliqueBatch& batch) {
  w.U32(static_cast<uint32_t>(batch.size()));
  for (size_t i = 0; i < batch.size(); ++i) {
    const auto left = batch.left(i);
    const auto right = batch.right(i);
    w.U32(static_cast<uint32_t>(left.size()));
    w.U32(static_cast<uint32_t>(right.size()));
    w.Ids(left);
    w.Ids(right);
  }
}

void Entries(Reader& r, BicliqueBatch& batch) {
  uint32_t count = 0;
  r.U32(count);
  std::vector<VertexId> left, right;
  for (uint32_t i = 0; r.ok() && i < count; ++i) {
    uint32_t l_len = 0, r_len = 0;
    r.U32(l_len);
    r.U32(r_len);
    // Both sides must fit in the remaining bytes before any reserve.
    if (!r.ok() ||
        uint64_t{l_len} * 4 + uint64_t{r_len} * 4 > r.remaining()) {
      r.Fail("kResultBatch: entry length mismatch");
      return;
    }
    r.Ids(left, l_len, 0);
    r.Ids(right, r_len, 0);
    batch.Append(left, right);
  }
}

// One field list per message, in wire order. `Io` is the Writer (encode)
// or the Reader (decode).

template <class Io>
void Fields(Io& io, HelloMsg& m) {
  io.U32(m.version);
}

template <class Io>
void Fields(Io& io, HelloOkMsg& m) {
  io.U32(m.version);
  io.U32(m.max_payload);
  io.U32(m.pool_threads);
}

template <class Io>
void Fields(Io& io, LoadGraphMsg& m) {
  io.Str(m.name, kMaxNameBytes);
  io.U32(m.num_left);
  io.U32(m.num_right);
  io.U8(m.order);
  io.Bool(m.hub_first_left);
  io.Bool(m.auto_swap_sides);
  io.Bool(m.core_reduce);
  io.U32(m.min_left);
  io.U32(m.min_right);
  io.U64(m.seed);
  Edges(io, m);
}

template <class Io>
void Fields(Io& io, LoadOkMsg& m) {
  io.Str(m.name, kMaxNameBytes);
  io.U32(m.num_left);
  io.U32(m.num_right);
  io.U64(m.num_edges);
  io.U64(m.epoch);
  io.F64(m.build_seconds);
}

template <class Io>
void Fields(Io& io, StartSessionMsg& m) {
  io.Str(m.graph, kMaxNameBytes);
  io.U8(m.algorithm);
  io.U32(m.min_left);
  io.U32(m.min_right);
  io.U64(m.max_results);
  io.U64(m.max_nodes_expanded);
  io.F64(m.deadline_seconds);
  io.U64(m.max_memory_bytes);
  io.U32(m.batch_results);
}

template <class Io>
void Fields(Io& io, SessionStartedMsg& m) {
  io.U64(m.session_id);
}

template <class Io>
void Fields(Io& io, CancelSessionMsg& m) {
  io.U64(m.session_id);
}

template <class Io>
void Fields(Io& io, ResultBatchMsg& m) {
  io.U64(m.session_id);
  Entries(io, m.batch);
}

template <class Io>
void Fields(Io& io, SessionDoneMsg& m) {
  io.U64(m.session_id);
  io.U8(m.termination);
  io.U64(m.results_emitted);
  io.U64(m.maximal);
  io.U64(m.nodes_expanded);
  io.U64(m.peak_charged_bytes);
  io.U64(m.queue_wait_ns);
  io.F64(m.seconds);
  io.U64(m.digest);
  io.Str(m.message, kMaxPayloadBytes);
}

template <class Io>
void Fields(Io& io, RejectedMsg& m) {
  io.U8(m.reason);
  io.Str(m.detail, kMaxPayloadBytes);
}

template <class Io>
void Fields(Io& io, ErrorMsg& m) {
  io.Str(m.detail, kMaxPayloadBytes);
}

template <class Io>
void Fields(Io& io, PingMsg& m) {
  io.U64(m.token);
}

template <class Io>
void Fields(Io& io, PongMsg& m) {
  io.U64(m.token);
}

template <class Io>
void Fields(Io&, InfoRequestMsg&) {}

template <class Io>
void Fields(Io& io, ServerInfoMsg& m) {
  io.U32(m.pool_threads);
  io.U32(m.active_sessions);
  io.U32(m.queued_sessions);
  io.U32(m.graphs);
  io.U64(m.sessions_started);
  io.U64(m.sessions_completed);
  io.U64(m.reloads);
  io.U64(m.heartbeats);
  io.U64(m.idle_disconnects);
  io.U64(m.connections_accepted);
  io.U8(m.draining);
}

/// Same payload as kLoadGraph; the type byte carries the swap semantics.
template <class Io>
void Fields(Io& io, ReloadGraphMsg& m) {
  Fields(io, m.load);
}

// The frame type byte is the Message alternative index + 1.
template <MsgType T, class M>
constexpr bool kTypeIs = std::is_same_v<
    std::variant_alternative_t<static_cast<size_t>(T) - 1, Message>, M>;
static_assert(kTypeIs<MsgType::kHello, HelloMsg> &&
              kTypeIs<MsgType::kHelloOk, HelloOkMsg> &&
              kTypeIs<MsgType::kLoadGraph, LoadGraphMsg> &&
              kTypeIs<MsgType::kLoadOk, LoadOkMsg> &&
              kTypeIs<MsgType::kStartSession, StartSessionMsg> &&
              kTypeIs<MsgType::kSessionStarted, SessionStartedMsg> &&
              kTypeIs<MsgType::kCancelSession, CancelSessionMsg> &&
              kTypeIs<MsgType::kResultBatch, ResultBatchMsg> &&
              kTypeIs<MsgType::kSessionDone, SessionDoneMsg> &&
              kTypeIs<MsgType::kRejected, RejectedMsg> &&
              kTypeIs<MsgType::kError, ErrorMsg> &&
              kTypeIs<MsgType::kPing, PingMsg> &&
              kTypeIs<MsgType::kPong, PongMsg> &&
              kTypeIs<MsgType::kInfoRequest, InfoRequestMsg> &&
              kTypeIs<MsgType::kServerInfo, ServerInfoMsg> &&
              kTypeIs<MsgType::kReloadGraph, ReloadGraphMsg> &&
              std::variant_size_v<Message> == 16);

/// Decoders indexed by type byte - 1: each default-constructs its
/// alternative and reads it through its field list.
using DecodeFn = void (*)(Reader&, Message&);

template <size_t... I>
constexpr std::array<DecodeFn, sizeof...(I)> MakeDecoders(
    std::index_sequence<I...>) {
  return {[](Reader& r, Message& out) { Fields(r, out.emplace<I>()); }...};
}

constexpr std::array<DecodeFn, std::variant_size_v<Message>> kDecoders =
    MakeDecoders(std::make_index_sequence<std::variant_size_v<Message>>());

}  // namespace

const char* RejectReasonName(RejectReason reason) {
  switch (reason) {
    case RejectReason::kTooManySessions:
      return "too-many-sessions";
    case RejectReason::kDraining:
      return "draining";
    case RejectReason::kUnknownGraph:
      return "unknown-graph";
    case RejectReason::kBadOptions:
      return "bad-options";
  }
  return "?";
}

MsgType TypeOf(const Message& message) {
  return static_cast<MsgType>(message.index() + 1);
}

util::Status EncodeMessage(const Message& message, std::vector<uint8_t>* out) {
  PMBE_CHECK(out != nullptr);
  std::vector<uint8_t> payload;
  Writer w(&payload);
  // Fields() takes the message by mutable reference so that one list
  // serves both directions; the Writer only reads through it.
  std::visit(
      [&w](const auto& m) {
        Fields(w, const_cast<std::remove_cvref_t<decltype(m)>&>(m));
      },
      message);
  PMBE_RETURN_IF_ERROR(w.status());
  if (payload.size() > kMaxPayloadBytes) {
    return util::Status::InvalidArgument(
        "payload exceeds kMaxPayloadBytes (" +
        std::to_string(payload.size()) + " bytes)");
  }
  Writer header(out);
  header.U32(static_cast<uint32_t>(payload.size()));
  header.U8(static_cast<uint8_t>(TypeOf(message)));
  out->insert(out->end(), payload.begin(), payload.end());
  return util::Status::Ok();
}

util::Status PeekFrame(std::span<const uint8_t> buffer, size_t* frame_size,
                       bool* complete) {
  PMBE_CHECK(frame_size != nullptr && complete != nullptr);
  *complete = false;
  *frame_size = 0;
  if (buffer.size() < kFrameHeaderBytes) return util::Status::Ok();
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= uint32_t{buffer[i]} << (8 * i);
  if (len > kMaxPayloadBytes) {
    return util::Status::CorruptData(
        "frame header claims " + std::to_string(len) +
        " payload bytes (max " + std::to_string(kMaxPayloadBytes) + ")");
  }
  *frame_size = kFrameHeaderBytes + len;
  *complete = buffer.size() >= *frame_size;
  return util::Status::Ok();
}

util::StatusOr<Message> DecodeMessage(std::span<const uint8_t> frame) {
  size_t frame_size = 0;
  bool complete = false;
  PMBE_RETURN_IF_ERROR(PeekFrame(frame, &frame_size, &complete));
  if (!complete || frame.size() != frame_size) {
    return util::Status::CorruptData(
        "frame is " + std::to_string(frame.size()) + " bytes, header wants " +
        std::to_string(frame_size));
  }
  const uint8_t type = frame[4];
  if (type == 0 || type > kDecoders.size()) {
    return util::Status::InvalidArgument("unknown message type " +
                                         std::to_string(type));
  }
  Message message;
  Reader r(frame.subspan(kFrameHeaderBytes));
  kDecoders[type - 1](r, message);
  PMBE_RETURN_IF_ERROR(r.status());
  return message;
}

void FrameAssembler::Feed(std::span<const uint8_t> bytes) {
  if (!poison_.ok()) return;
  // Compact once the dead prefix dominates, so a long-lived stream does
  // not grow the buffer past one frame plus slack.
  if (consumed_ > 4096 && consumed_ > buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

util::StatusOr<bool> FrameAssembler::Next(Message* out) {
  PMBE_CHECK(out != nullptr);
  if (!poison_.ok()) return poison_;
  const std::span<const uint8_t> pending(buffer_.data() + consumed_,
                                         buffer_.size() - consumed_);
  size_t frame_size = 0;
  bool complete = false;
  util::Status status = PeekFrame(pending, &frame_size, &complete);
  if (status.ok() && complete) {
    util::StatusOr<Message> decoded =
        DecodeMessage(pending.subspan(0, frame_size));
    status = decoded.status();
    if (status.ok()) {
      consumed_ += frame_size;
      *out = std::move(decoded).value();
      return true;
    }
  }
  if (!status.ok()) {
    poison_ = status;
    return poison_;
  }
  return false;
}

}  // namespace mbe::serve

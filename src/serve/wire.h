#ifndef PMBE_SERVE_WIRE_H_
#define PMBE_SERVE_WIRE_H_

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "core/sink.h"
#include "util/common.h"
#include "util/status.h"

/// \file
/// The pmbe_serve wire protocol (docs/SERVICE.md): a length-prefixed
/// binary framing with a fixed little-endian payload encoding per message
/// type.
///
/// Frame layout:
/// ```
///   uint32  payload_length   (little-endian; <= kMaxPayloadBytes)
///   uint8   message_type     (MsgType)
///   uint8[] payload          (payload_length bytes)
/// ```
///
/// One field list per message (`Fields` in wire.cc) defines its payload
/// layout: the encoder walks it with a writer and the decoder with a
/// reader, so the two directions cannot disagree on field order or on a
/// string bound. The type byte of a message is its `Message` alternative
/// index + 1 (static_assert'ed there).
///
/// The codec is a pure byte-buffer transformation — no sockets, no
/// threads — so it can be driven directly by the fuzz harness
/// (tools/fuzz_wire.cc) and the round-trip tests. Decoding is total:
/// any byte string either yields a message or a typed
/// InvalidArgument/CorruptData status, never a crash; a decoded message
/// re-encodes to exactly the input frame (canonical encoding).
///
/// Conversation (client -> server unless noted):
///  * kHello / kHelloOk (server) — version gate, one per connection.
///  * kLoadGraph / kLoadOk (server) — build an Engine and register it
///    under a name. Load once; every session after that reuses it.
///  * kStartSession / kSessionStarted (server) — admit one enumeration
///    over a registered graph. Results stream back as kResultBatch
///    frames, closed by one kSessionDone. Multiple sessions may be in
///    flight on one connection; frames carry the session id.
///  * kCancelSession — stop one session; it still ends with kSessionDone
///    (termination = cancelled, results are the valid prefix).
///  * kRejected (server) — typed admission rejection (kTooManySessions,
///    kDraining, ...): the request was not started.
///  * kError (server) — protocol-level failure; the server closes the
///    connection after sending it.
///  * kPing / kPong (server) — heartbeat; the token echoes back so a
///    client can match responses under pipelining.
///  * kInfoRequest / kServerInfo (server) — live health counters
///    (active/queued sessions, reloads, heartbeats, idle disconnects).
///  * kReloadGraph / kLoadOk (server) — like kLoadGraph but with swap
///    semantics: replaces (or inserts) the named engine in a new epoch;
///    in-flight sessions finish on the engine they started with.
///
/// Version history: v1 = PR 6 (kHello..kError); v2 adds the heartbeat,
/// health, and reload messages plus SessionDoneMsg::digest and
/// LoadOkMsg::epoch.

namespace mbe::serve {

inline constexpr uint32_t kProtocolVersion = 2;

/// Hard bound on one frame's payload; DecodeMessage and PeekFrame reject
/// larger claims outright, so a corrupt length prefix cannot trigger a
/// giant allocation.
inline constexpr uint32_t kMaxPayloadBytes = 64u << 20;

/// uint32 length + uint8 type.
inline constexpr size_t kFrameHeaderBytes = 5;

/// Longest accepted graph-name string.
inline constexpr size_t kMaxNameBytes = 256;

enum class MsgType : uint8_t {
  kHello = 1,
  kHelloOk = 2,
  kLoadGraph = 3,
  kLoadOk = 4,
  kStartSession = 5,
  kSessionStarted = 6,
  kCancelSession = 7,
  kResultBatch = 8,
  kSessionDone = 9,
  kRejected = 10,
  kError = 11,
  kPing = 12,
  kPong = 13,
  kInfoRequest = 14,
  kServerInfo = 15,
  kReloadGraph = 16,
};

/// Why the server refused to start a session (RejectedMsg::reason).
enum class RejectReason : uint8_t {
  kTooManySessions = 1,  ///< active sessions and admission queue both full
  kDraining = 2,         ///< server is shutting down (SIGTERM drain)
  kUnknownGraph = 3,     ///< no engine registered under that name
  kBadOptions = 4,       ///< options failed validation against the engine
};

/// Stable display name ("too-many-sessions", "draining", ...).
const char* RejectReasonName(RejectReason reason);

struct HelloMsg {
  uint32_t version = kProtocolVersion;
};

struct HelloOkMsg {
  uint32_t version = kProtocolVersion;
  uint32_t max_payload = kMaxPayloadBytes;
  /// Worker threads of the server's shared session pool (diagnostic).
  uint32_t pool_threads = 0;
};

/// Uploads a bipartite graph and bakes it into a named Engine. Ids must
/// be < num_left / num_right; edges are parallel arrays.
struct LoadGraphMsg {
  std::string name;
  uint32_t num_left = 0;
  uint32_t num_right = 0;
  std::vector<VertexId> edge_left;
  std::vector<VertexId> edge_right;
  /// GraphOptions subset (api/options.h), in wire form.
  uint8_t order = 1;  ///< graph::VertexOrder numeric value (1 = kDegreeAsc)
  bool hub_first_left = true;
  bool auto_swap_sides = true;
  bool core_reduce = true;
  uint32_t min_left = 1;
  uint32_t min_right = 1;
  uint64_t seed = 1;
};

struct LoadOkMsg {
  std::string name;
  uint32_t num_left = 0;
  uint32_t num_right = 0;
  uint64_t num_edges = 0;
  /// Registry epoch of the engine slot this load produced. First-wins
  /// loads are epoch 1; every kReloadGraph swap increments it.
  uint64_t epoch = 0;
  double build_seconds = 0;
};

/// Starts one enumeration session over a registered graph. The session
/// runs on the server's shared pool; `threads` is not a knob — fairness
/// across sessions is the server's job.
struct StartSessionMsg {
  std::string graph;
  uint8_t algorithm = 0;  ///< mbe::Algorithm numeric value (0 = kMbet)
  uint32_t min_left = 1;
  uint32_t min_right = 1;
  uint64_t max_results = 0;
  uint64_t max_nodes_expanded = 0;
  double deadline_seconds = 0;
  uint64_t max_memory_bytes = 0;  ///< per-session budget (0 = unlimited)
  /// Bicliques per kResultBatch frame (server clamps to [1, 4096]).
  uint32_t batch_results = 128;
};

struct SessionStartedMsg {
  uint64_t session_id = 0;
};

struct CancelSessionMsg {
  uint64_t session_id = 0;
};

struct ResultBatchMsg {
  uint64_t session_id = 0;
  BicliqueBatch batch;
};

struct SessionDoneMsg {
  uint64_t session_id = 0;
  uint8_t termination = 0;  ///< mbe::Termination numeric value
  uint64_t results_emitted = 0;
  uint64_t maximal = 0;
  uint64_t nodes_expanded = 0;
  uint64_t peak_charged_bytes = 0;
  /// Time the session spent queued before its first task ran.
  uint64_t queue_wait_ns = 0;
  double seconds = 0;
  /// Commutative FingerprintSink digest of every result batch the server
  /// streamed for this session. A client that folds its received batches
  /// through the same sink must land on this value — the completeness
  /// check that makes retried streams safe to accept.
  uint64_t digest = 0;
  std::string message;
};

struct RejectedMsg {
  uint8_t reason = 0;  ///< RejectReason numeric value
  std::string detail;
};

struct ErrorMsg {
  std::string detail;
};

/// Heartbeat: the server echoes the token back in a kPong. Cheap enough
/// to interleave with streaming sessions; also resets the connection's
/// idle-timeout clock like any other frame.
struct PingMsg {
  uint64_t token = 0;
};

struct PongMsg {
  uint64_t token = 0;
};

/// Empty payload — the frame type alone is the request.
struct InfoRequestMsg {};

/// Live server health counters (pmbe_serve --stats renders these).
struct ServerInfoMsg {
  uint32_t pool_threads = 0;
  uint32_t active_sessions = 0;
  uint32_t queued_sessions = 0;
  uint32_t graphs = 0;
  uint64_t sessions_started = 0;
  uint64_t sessions_completed = 0;
  uint64_t reloads = 0;
  uint64_t heartbeats = 0;
  uint64_t idle_disconnects = 0;
  uint64_t connections_accepted = 0;
  uint8_t draining = 0;
};

/// Like kLoadGraph but with swap semantics: builds a new engine and
/// replaces (or inserts) the registry slot under `load.name`, bumping its
/// epoch. In-flight sessions keep their engine reference and finish on
/// the pre-swap graph. Replied to with kLoadOk carrying the new epoch.
struct ReloadGraphMsg {
  LoadGraphMsg load;
};

using Message =
    std::variant<HelloMsg, HelloOkMsg, LoadGraphMsg, LoadOkMsg,
                 StartSessionMsg, SessionStartedMsg, CancelSessionMsg,
                 ResultBatchMsg, SessionDoneMsg, RejectedMsg, ErrorMsg,
                 PingMsg, PongMsg, InfoRequestMsg, ServerInfoMsg,
                 ReloadGraphMsg>;

/// The frame type a message encodes as: its alternative index + 1.
MsgType TypeOf(const Message& message);

/// Appends one complete frame (header + canonical payload) to `*out`.
/// Fails (leaving `*out` untouched) when the payload would exceed
/// kMaxPayloadBytes, a string field exceeds its bound, or kLoadGraph's
/// edge arrays differ in length — anything the decoder would refuse.
util::Status EncodeMessage(const Message& message, std::vector<uint8_t>* out);

/// Stream framing: inspects the start of `buffer`. Sets `*complete` to
/// whether a whole frame is present and `*frame_size` to its total size
/// (header + payload; meaningful once the 5 header bytes are in). Returns
/// CorruptData when the header claims a payload past kMaxPayloadBytes —
/// the connection cannot be resynchronized and must be dropped.
util::Status PeekFrame(std::span<const uint8_t> buffer, size_t* frame_size,
                       bool* complete);

/// Decodes exactly one frame (header + payload, no trailing bytes).
/// Total: any input yields a message or a typed error. Valid frames
/// round-trip: EncodeMessage(DecodeMessage(f)) == f.
util::StatusOr<Message> DecodeMessage(std::span<const uint8_t> frame);

/// Incremental stream decoder: feed byte chunks exactly as a socket
/// delivers them (any split — 1 byte at a time, mid-header, mid-payload)
/// and pop complete messages. Decoding is split-invariant: the message
/// sequence is identical to whole-frame delivery. Corrupt framing or
/// payloads surface as the same typed statuses as DecodeMessage and
/// poison the assembler — a byte stream cannot be resynchronized after a
/// bad length prefix, so the connection must be dropped.
class FrameAssembler {
 public:
  /// Appends stream bytes.
  void Feed(std::span<const uint8_t> bytes);

  /// Pops the next complete message into `*out`. Returns true when one
  /// was produced, false when the buffer holds no complete frame yet, or
  /// a typed error on corrupt input (every later call repeats the error).
  util::StatusOr<bool> Next(Message* out);

  /// Bytes fed but not yet consumed by Next (partial frame in flight).
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;
  util::Status poison_ = util::Status::Ok();
};

}  // namespace mbe::serve

#endif  // PMBE_SERVE_WIRE_H_

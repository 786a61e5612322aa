// Wire-protocol codec tests (serve/wire.h): round-trip every message
// type, canonical encoding, total decoding under truncation/corruption,
// and the stream framer. The fuzz harness (tools/fuzz_wire.cc) hammers
// the same properties with random bytes; these tests pin the specific
// contracts down deterministically.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "serve/wire.h"
#include "util/status.h"

namespace mbe::serve {
namespace {

std::vector<uint8_t> Encode(const Message& message) {
  std::vector<uint8_t> frame;
  EXPECT_TRUE(EncodeMessage(message, &frame).ok());
  return frame;
}

/// Encode -> decode -> re-encode must reproduce the frame byte for byte
/// (the canonical-encoding property), and the decoded variant must hold
/// the same alternative.
Message RoundTrip(const Message& message) {
  const std::vector<uint8_t> frame = Encode(message);
  util::StatusOr<Message> decoded = DecodeMessage(frame);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(TypeOf(decoded.value()), TypeOf(message));
  EXPECT_EQ(Encode(decoded.value()), frame);
  return std::move(decoded).value();
}

LoadGraphMsg MakeLoadGraph() {
  LoadGraphMsg m;
  m.name = "bench";
  m.num_left = 4;
  m.num_right = 3;
  m.edge_left = {0, 1, 2, 3, 3};
  m.edge_right = {0, 1, 2, 0, 2};
  m.order = 2;
  m.hub_first_left = false;
  m.auto_swap_sides = true;
  m.core_reduce = false;
  m.min_left = 2;
  m.min_right = 3;
  m.seed = 0xdeadbeefcafe;
  return m;
}

/// One fixed instance of every message type, in MsgType order, with its
/// exact protocol-v2 frame as hex. Every field holds a distinct value, so
/// an encoder and decoder that reorder fields together — which round-trip
/// tests cannot see — still fail here. These bytes are the protocol: edit
/// them only together with kProtocolVersion.
struct GoldenFrame {
  Message message;
  const char* hex;
};

std::vector<GoldenFrame> GoldenFrames() {
  LoadGraphMsg load;
  load.name = "g";
  load.num_left = 3;
  load.num_right = 2;
  load.edge_left = {0, 2};
  load.edge_right = {1, 0};
  load.order = 2;
  load.hub_first_left = false;
  load.auto_swap_sides = true;
  load.core_reduce = false;
  load.min_left = 4;
  load.min_right = 5;
  load.seed = 0x0102030405060708;
  LoadOkMsg ok;
  ok.name = "ok";
  ok.num_left = 6;
  ok.num_right = 7;
  ok.num_edges = 8;
  ok.epoch = 9;
  ok.build_seconds = 0.5;
  StartSessionMsg start;
  start.graph = "s";
  start.algorithm = 3;
  start.min_left = 10;
  start.min_right = 11;
  start.max_results = 12;
  start.max_nodes_expanded = 13;
  start.deadline_seconds = 1.5;
  start.max_memory_bytes = 14;
  start.batch_results = 15;
  ResultBatchMsg batch;
  batch.session_id = 16;
  const VertexId l0[] = {1, 2};
  const VertexId r0[] = {3};
  batch.batch.Append(l0, r0);
  const VertexId l1[] = {4};
  const VertexId r1[] = {5, 6, 7};
  batch.batch.Append(l1, r1);
  SessionDoneMsg done;
  done.session_id = 17;
  done.termination = 2;
  done.results_emitted = 18;
  done.maximal = 19;
  done.nodes_expanded = 20;
  done.peak_charged_bytes = 21;
  done.queue_wait_ns = 22;
  done.seconds = 2.5;
  done.digest = 0x1112131415161718;
  done.message = "m";
  ServerInfoMsg info;
  info.pool_threads = 23;
  info.active_sessions = 24;
  info.queued_sessions = 25;
  info.graphs = 26;
  info.sessions_started = 27;
  info.sessions_completed = 28;
  info.reloads = 29;
  info.heartbeats = 30;
  info.idle_disconnects = 31;
  info.connections_accepted = 32;
  info.draining = 1;
  LoadGraphMsg reload = load;
  reload.name = "r";
  return {
      {HelloMsg{2}, "040000000102000000"},
      {HelloOkMsg{2, 1024, 4}, "0c00000002020000000004000004000000"},
      {load,
       "39000000030100000067030000000200000002000100040000000500"
       "00000807060504030201020000000000000000000000020000000100"
       "000000000000"},
      {ok,
       "2600000004020000006f6b0600000007000000080000000000000009"
       "00000000000000000000000000e03f"},
      {start,
       "32000000050100000073030a0000000b0000000c000000000000000d"
       "00000000000000000000000000f83f0e000000000000000f000000"},
      {SessionStartedMsg{33}, "08000000062100000000000000"},
      {CancelSessionMsg{34}, "08000000072200000000000000"},
      {batch,
       "38000000081000000000000000020000000200000001000000010000"
       "00020000000300000001000000030000000400000005000000060000"
       "0007000000"},
      {done,
       "46000000091100000000000000021200000000000000130000000000"
       "00001400000000000000150000000000000016000000000000000000"
       "0000000004401817161514131211010000006d"},
      {RejectedMsg{1, "busy"}, "090000000a010400000062757379"},
      {ErrorMsg{"bad"}, "070000000b03000000626164"},
      {PingMsg{0x2122232425262728}, "080000000c2827262524232221"},
      {PongMsg{0x3132333435363738}, "080000000d3837363534333231"},
      {InfoRequestMsg{}, "000000000e"},
      {info,
       "410000000f1700000018000000190000001a0000001b000000000000"
       "001c000000000000001d000000000000001e000000000000001f0000"
       "0000000000200000000000000001"},
      {ReloadGraphMsg{reload},
       "39000000100100000072030000000200000002000100040000000500"
       "00000807060504030201020000000000000000000000020000000100"
       "000000000000"},
  };
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (uint8_t b : bytes) {
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xf]);
  }
  return hex;
}

std::vector<uint8_t> Unhex(const std::string& hex) {
  std::vector<uint8_t> bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(
        static_cast<uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

TEST(WireTest, GoldenFramesPinProtocolV2) {
  EXPECT_EQ(kProtocolVersion, 2u);
  const std::vector<GoldenFrame> golden = GoldenFrames();
  ASSERT_EQ(golden.size(), std::variant_size_v<Message>);
  for (size_t i = 0; i < golden.size(); ++i) {
    SCOPED_TRACE("message type " + std::to_string(i + 1));
    EXPECT_EQ(static_cast<size_t>(TypeOf(golden[i].message)), i + 1);
    EXPECT_EQ(Hex(Encode(golden[i].message)), golden[i].hex);
    util::StatusOr<Message> decoded = DecodeMessage(Unhex(golden[i].hex));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(Hex(Encode(decoded.value())), golden[i].hex);
  }
}

TEST(WireTest, HelloRoundTrip) {
  const Message out = RoundTrip(HelloMsg{kProtocolVersion});
  EXPECT_EQ(std::get<HelloMsg>(out).version, kProtocolVersion);
}

TEST(WireTest, HelloOkRoundTrip) {
  const Message out = RoundTrip(HelloOkMsg{3, 1u << 20, 8});
  const auto& m = std::get<HelloOkMsg>(out);
  EXPECT_EQ(m.version, 3u);
  EXPECT_EQ(m.max_payload, 1u << 20);
  EXPECT_EQ(m.pool_threads, 8u);
}

TEST(WireTest, LoadGraphRoundTrip) {
  const Message out = RoundTrip(MakeLoadGraph());
  const auto& m = std::get<LoadGraphMsg>(out);
  EXPECT_EQ(m.name, "bench");
  EXPECT_EQ(m.num_left, 4u);
  EXPECT_EQ(m.num_right, 3u);
  EXPECT_EQ(m.edge_left, (std::vector<VertexId>{0, 1, 2, 3, 3}));
  EXPECT_EQ(m.edge_right, (std::vector<VertexId>{0, 1, 2, 0, 2}));
  EXPECT_EQ(m.order, 2);
  EXPECT_FALSE(m.hub_first_left);
  EXPECT_TRUE(m.auto_swap_sides);
  EXPECT_FALSE(m.core_reduce);
  EXPECT_EQ(m.min_left, 2u);
  EXPECT_EQ(m.min_right, 3u);
  EXPECT_EQ(m.seed, 0xdeadbeefcafeull);
}

TEST(WireTest, LoadGraphEmptyRoundTrip) {
  LoadGraphMsg m;
  m.name = "empty";
  const Message out = RoundTrip(m);
  EXPECT_TRUE(std::get<LoadGraphMsg>(out).edge_left.empty());
}

TEST(WireTest, LoadOkRoundTrip) {
  LoadOkMsg m;
  m.name = "bench";
  m.num_left = 10;
  m.num_right = 20;
  m.num_edges = 55;
  m.epoch = 3;
  m.build_seconds = 0.125;
  const Message out = RoundTrip(m);
  EXPECT_EQ(std::get<LoadOkMsg>(out).num_edges, 55u);
  EXPECT_EQ(std::get<LoadOkMsg>(out).epoch, 3u);
  EXPECT_EQ(std::get<LoadOkMsg>(out).build_seconds, 0.125);
}

TEST(WireTest, StartSessionRoundTrip) {
  StartSessionMsg m;
  m.graph = "bench";
  m.algorithm = 4;
  m.min_left = 2;
  m.min_right = 5;
  m.max_results = 1000;
  m.max_nodes_expanded = 50000;
  m.deadline_seconds = 2.5;
  m.max_memory_bytes = 1ull << 30;
  m.batch_results = 64;
  const Message out = RoundTrip(m);
  const auto& d = std::get<StartSessionMsg>(out);
  EXPECT_EQ(d.graph, "bench");
  EXPECT_EQ(d.algorithm, 4);
  EXPECT_EQ(d.max_results, 1000u);
  EXPECT_EQ(d.deadline_seconds, 2.5);
  EXPECT_EQ(d.max_memory_bytes, 1ull << 30);
  EXPECT_EQ(d.batch_results, 64u);
}

TEST(WireTest, SessionStartedAndCancelRoundTrip) {
  EXPECT_EQ(std::get<SessionStartedMsg>(RoundTrip(SessionStartedMsg{77}))
                .session_id,
            77u);
  EXPECT_EQ(
      std::get<CancelSessionMsg>(RoundTrip(CancelSessionMsg{78})).session_id,
      78u);
}

TEST(WireTest, ResultBatchRoundTrip) {
  ResultBatchMsg m;
  m.session_id = 9;
  const VertexId l0[] = {0, 2, 4};
  const VertexId r0[] = {1};
  const VertexId l1[] = {5};
  const VertexId r1[] = {0, 3};
  m.batch.Append(l0, r0);
  m.batch.Append(l1, r1);
  const Message out = RoundTrip(m);
  const auto& d = std::get<ResultBatchMsg>(out);
  EXPECT_EQ(d.session_id, 9u);
  ASSERT_EQ(d.batch.size(), 2u);
  EXPECT_EQ(std::vector<VertexId>(d.batch.left(0).begin(),
                                  d.batch.left(0).end()),
            (std::vector<VertexId>{0, 2, 4}));
  EXPECT_EQ(std::vector<VertexId>(d.batch.right(1).begin(),
                                  d.batch.right(1).end()),
            (std::vector<VertexId>{0, 3}));
}

TEST(WireTest, EmptyResultBatchRoundTrip) {
  ResultBatchMsg m;
  m.session_id = 1;
  EXPECT_TRUE(std::get<ResultBatchMsg>(RoundTrip(m)).batch.empty());
}

TEST(WireTest, SessionDoneRoundTrip) {
  SessionDoneMsg m;
  m.session_id = 12;
  m.termination = 3;
  m.results_emitted = 400;
  m.maximal = 401;
  m.nodes_expanded = 9000;
  m.peak_charged_bytes = 1 << 16;
  m.queue_wait_ns = 12345;
  m.seconds = 1.75;
  m.digest = 0xfeedface12345678;
  m.message = "budget";
  const Message out = RoundTrip(m);
  const auto& d = std::get<SessionDoneMsg>(out);
  EXPECT_EQ(d.termination, 3);
  EXPECT_EQ(d.maximal, 401u);
  EXPECT_EQ(d.queue_wait_ns, 12345u);
  EXPECT_EQ(d.digest, 0xfeedface12345678u);
  EXPECT_EQ(d.message, "budget");
}

TEST(WireTest, RejectedAndErrorRoundTrip) {
  const Message rejected = RoundTrip(RejectedMsg{2, "draining"});
  EXPECT_EQ(std::get<RejectedMsg>(rejected).reason, 2);
  EXPECT_EQ(std::get<RejectedMsg>(rejected).detail, "draining");
  const Message error = RoundTrip(ErrorMsg{"bad frame"});
  EXPECT_EQ(std::get<ErrorMsg>(error).detail, "bad frame");
}

// --- Framing -------------------------------------------------------------

TEST(WireTest, PeekFrameIncompleteHeader) {
  const std::vector<uint8_t> frame = Encode(HelloMsg{});
  for (size_t n = 0; n < kFrameHeaderBytes; ++n) {
    size_t frame_size = 99;
    bool complete = true;
    EXPECT_TRUE(PeekFrame(std::span(frame.data(), n), &frame_size, &complete)
                    .ok());
    EXPECT_FALSE(complete);
  }
}

TEST(WireTest, PeekFrameReportsSizeOncePayloadPending) {
  const std::vector<uint8_t> frame = Encode(MakeLoadGraph());
  size_t frame_size = 0;
  bool complete = true;
  // Header present, payload not yet: size known, not complete.
  ASSERT_TRUE(PeekFrame(std::span(frame.data(), kFrameHeaderBytes),
                        &frame_size, &complete)
                  .ok());
  EXPECT_EQ(frame_size, frame.size());
  EXPECT_FALSE(complete);
  // Whole frame (plus stream tail): complete, same size.
  std::vector<uint8_t> stream = frame;
  stream.push_back(0xab);
  ASSERT_TRUE(PeekFrame(stream, &frame_size, &complete).ok());
  EXPECT_EQ(frame_size, frame.size());
  EXPECT_TRUE(complete);
}

TEST(WireTest, PeekFrameRejectsOversizedLengthClaim) {
  const std::vector<uint8_t> bytes = {0xff, 0xff, 0xff, 0xff, 1};
  size_t frame_size = 0;
  bool complete = false;
  EXPECT_EQ(PeekFrame(bytes, &frame_size, &complete).code(),
            util::StatusCode::kCorruptData);
}

TEST(WireTest, DecodeRejectsEveryTruncation) {
  std::vector<Message> samples = {MakeLoadGraph()};
  for (const GoldenFrame& golden : GoldenFrames()) {
    samples.push_back(golden.message);
  }
  for (const Message& message : samples) {
    const std::vector<uint8_t> frame = Encode(message);
    for (size_t n = 0; n < frame.size(); ++n) {
      EXPECT_FALSE(DecodeMessage(std::span(frame.data(), n)).ok())
          << "type " << static_cast<int>(TypeOf(message)) << ": prefix of "
          << n << " bytes decoded";
    }
  }
}

TEST(WireTest, DecodeRejectsTrailingBytes) {
  std::vector<uint8_t> frame = Encode(SessionStartedMsg{1});
  frame.push_back(0);
  EXPECT_FALSE(DecodeMessage(frame).ok());
}

TEST(WireTest, DecodeRejectsUnknownType) {
  std::vector<uint8_t> frame = Encode(HelloMsg{});
  frame[4] = 0xee;
  EXPECT_FALSE(DecodeMessage(frame).ok());
}

// --- Typed payload validation -------------------------------------------

TEST(WireTest, LoadGraphStrictBools) {
  // With name "bench" (5 bytes), the three bool bytes sit at payload
  // offsets 18..20: 4+5 name, 4+4 sides, 1 order, then the bools.
  const std::vector<uint8_t> frame = Encode(MakeLoadGraph());
  for (size_t off = 18; off <= 20; ++off) {
    std::vector<uint8_t> bad = frame;
    bad[kFrameHeaderBytes + off] = 2;
    EXPECT_FALSE(DecodeMessage(bad).ok())
        << "bool byte at payload offset " << off << " accepted value 2";
  }
  // Sanity: the offsets really are the bools — flipping within {0,1}
  // still decodes.
  std::vector<uint8_t> flipped = frame;
  flipped[kFrameHeaderBytes + 18] ^= 1;
  EXPECT_TRUE(DecodeMessage(flipped).ok());
}

TEST(WireTest, LoadGraphEdgeIdOutOfRangeRejected) {
  LoadGraphMsg m = MakeLoadGraph();
  m.edge_left[0] = m.num_left;  // one past the valid range
  EXPECT_EQ(DecodeMessage(Encode(m)).status().code(),
            util::StatusCode::kCorruptData);
  m = MakeLoadGraph();
  m.edge_right[4] = m.num_right;
  EXPECT_EQ(DecodeMessage(Encode(m)).status().code(),
            util::StatusCode::kCorruptData);
}

TEST(WireTest, LoadGraphEdgesOnEmptySideRejected) {
  LoadGraphMsg m = MakeLoadGraph();
  m.num_right = 0;
  EXPECT_EQ(DecodeMessage(Encode(m)).status().code(),
            util::StatusCode::kCorruptData);
}

TEST(WireTest, LoadGraphEdgeCountMismatchRejected) {
  // Hand-corrupt the edge-count field: with name "bench" it sits at
  // payload offset 37 (18 head + 3 bools + 8 thresholds + 8 seed).
  const std::vector<uint8_t> frame = Encode(MakeLoadGraph());
  std::vector<uint8_t> bad = frame;
  bad[kFrameHeaderBytes + 37] += 1;
  EXPECT_EQ(DecodeMessage(bad).status().code(),
            util::StatusCode::kCorruptData);
}

TEST(WireTest, ResultBatchEntryLengthOverrunRejected) {
  ResultBatchMsg m;
  m.session_id = 1;
  const VertexId l[] = {0};
  const VertexId r[] = {1};
  m.batch.Append(l, r);
  std::vector<uint8_t> frame = Encode(m);
  // Payload: 8 session id, 4 count, then entry header l_len at offset 12.
  frame[kFrameHeaderBytes + 12] = 0xff;
  EXPECT_EQ(DecodeMessage(frame).status().code(),
            util::StatusCode::kCorruptData);
}

TEST(WireTest, EncodeRejectsMismatchedEdgeArrays) {
  // Encoding writes edge_left.size() as the edge count; a mismatched
  // message must fail here instead of producing an undecodable frame.
  LoadGraphMsg m = MakeLoadGraph();
  m.edge_right.pop_back();
  std::vector<uint8_t> frame;
  EXPECT_EQ(EncodeMessage(m, &frame).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_TRUE(frame.empty());  // failed encodes leave the output untouched
}

TEST(WireTest, EncodeRejectsOverlongNames) {
  std::vector<uint8_t> frame;
  LoadGraphMsg load;
  load.name.assign(kMaxNameBytes + 1, 'x');
  EXPECT_EQ(EncodeMessage(load, &frame).code(),
            util::StatusCode::kInvalidArgument);
  StartSessionMsg start;
  start.graph.assign(kMaxNameBytes + 1, 'x');
  EXPECT_EQ(EncodeMessage(start, &frame).code(),
            util::StatusCode::kInvalidArgument);
  LoadOkMsg ok;
  ok.name.assign(kMaxNameBytes + 1, 'x');
  EXPECT_EQ(EncodeMessage(ok, &frame).code(),
            util::StatusCode::kInvalidArgument);
}

TEST(WireTest, NameOverLimitFailsDecode) {
  // EncodeMessage refuses over-long names, so hand-build the frame: a
  // kLoadGraph payload whose name field claims kMaxNameBytes + 1 bytes.
  const uint32_t n = kMaxNameBytes + 1;
  std::vector<uint8_t> frame = {0, 0, 0, 0,
                                static_cast<uint8_t>(MsgType::kLoadGraph)};
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<uint8_t>((n >> (8 * i)) & 0xff));
  }
  frame.insert(frame.end(), n, 'x');
  const auto payload =
      static_cast<uint32_t>(frame.size() - kFrameHeaderBytes);
  for (int i = 0; i < 4; ++i) {
    frame[static_cast<size_t>(i)] =
        static_cast<uint8_t>((payload >> (8 * i)) & 0xff);
  }
  EXPECT_FALSE(DecodeMessage(frame).ok());
}

// --- v2 messages (heartbeat, health, reload) -----------------------------

TEST(WireTest, PingPongRoundTrip) {
  const Message ping = RoundTrip(PingMsg{0x1122334455667788});
  EXPECT_EQ(std::get<PingMsg>(ping).token, 0x1122334455667788u);
  const Message pong = RoundTrip(PongMsg{0x8877665544332211});
  EXPECT_EQ(std::get<PongMsg>(pong).token, 0x8877665544332211u);
}

TEST(WireTest, InfoRequestRoundTripIsEmptyPayload) {
  const std::vector<uint8_t> frame = Encode(InfoRequestMsg{});
  EXPECT_EQ(frame.size(), kFrameHeaderBytes);  // no payload at all
  RoundTrip(InfoRequestMsg{});
}

TEST(WireTest, ServerInfoRoundTrip) {
  ServerInfoMsg m;
  m.pool_threads = 8;
  m.active_sessions = 3;
  m.queued_sessions = 5;
  m.graphs = 2;
  m.sessions_started = 100;
  m.sessions_completed = 97;
  m.reloads = 4;
  m.heartbeats = 12;
  m.idle_disconnects = 1;
  m.connections_accepted = 9;
  m.draining = 1;
  const Message out = RoundTrip(m);
  const auto& info = std::get<ServerInfoMsg>(out);
  EXPECT_EQ(info.pool_threads, 8u);
  EXPECT_EQ(info.queued_sessions, 5u);
  EXPECT_EQ(info.sessions_started, 100u);
  EXPECT_EQ(info.sessions_completed, 97u);
  EXPECT_EQ(info.reloads, 4u);
  EXPECT_EQ(info.heartbeats, 12u);
  EXPECT_EQ(info.idle_disconnects, 1u);
  EXPECT_EQ(info.connections_accepted, 9u);
  EXPECT_EQ(info.draining, 1);
}

TEST(WireTest, ReloadGraphRoundTripSharesLoadLayout) {
  const Message out = RoundTrip(ReloadGraphMsg{MakeLoadGraph()});
  const auto& m = std::get<ReloadGraphMsg>(out).load;
  EXPECT_EQ(m.name, "bench");
  EXPECT_EQ(m.edge_left, (std::vector<VertexId>{0, 1, 2, 3, 3}));
  EXPECT_EQ(m.seed, 0xdeadbeefcafeu);
  // Same payload bytes as the kLoadGraph encoding; only the type byte
  // (offset 4) differs.
  const std::vector<uint8_t> as_load = Encode(MakeLoadGraph());
  std::vector<uint8_t> as_reload = Encode(ReloadGraphMsg{MakeLoadGraph()});
  EXPECT_EQ(as_reload[4], static_cast<uint8_t>(MsgType::kReloadGraph));
  as_reload[4] = static_cast<uint8_t>(MsgType::kLoadGraph);
  EXPECT_EQ(as_reload, as_load);
}

TEST(WireTest, ReloadGraphValidatesLikeLoadGraph) {
  ReloadGraphMsg bad{MakeLoadGraph()};
  bad.load.edge_left.push_back(99);  // id out of range, arrays mismatched
  std::vector<uint8_t> frame;
  EXPECT_FALSE(EncodeMessage(bad, &frame).ok());
}

// --- FrameAssembler ------------------------------------------------------

std::vector<uint8_t> ConcatFrames(const std::vector<Message>& messages) {
  std::vector<uint8_t> bytes;
  for (const Message& m : messages) {
    const std::vector<uint8_t> frame = Encode(m);
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  return bytes;
}

/// Feeds `bytes` to an assembler in `chunk`-sized slices and returns
/// every decoded message.
std::vector<Message> FeedChunked(const std::vector<uint8_t>& bytes,
                                 size_t chunk) {
  FrameAssembler assembler;
  std::vector<Message> out;
  for (size_t off = 0; off < bytes.size(); off += chunk) {
    const size_t n = std::min(chunk, bytes.size() - off);
    assembler.Feed(std::span<const uint8_t>(bytes.data() + off, n));
    for (;;) {
      Message message;
      auto produced = assembler.Next(&message);
      EXPECT_TRUE(produced.ok()) << produced.status().ToString();
      if (!produced.ok() || !produced.value()) break;
      out.push_back(std::move(message));
    }
  }
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
  return out;
}

TEST(WireTest, AssemblerSplitInvariance) {
  SessionDoneMsg done;
  done.session_id = 5;
  done.digest = 0xabcdef;
  done.message = "fin";
  const std::vector<uint8_t> bytes = ConcatFrames(
      {HelloMsg{}, PingMsg{42}, MakeLoadGraph(), InfoRequestMsg{}, done});
  // Pathological short reads — 1 byte at a time splits every header and
  // payload — must decode identically to any other chunking.
  for (const size_t chunk : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                             size_t{4096}, bytes.size()}) {
    const std::vector<Message> out = FeedChunked(bytes, chunk);
    ASSERT_EQ(out.size(), 5u) << "chunk=" << chunk;
    EXPECT_EQ(TypeOf(out[0]), MsgType::kHello);
    EXPECT_EQ(std::get<PingMsg>(out[1]).token, 42u);
    EXPECT_EQ(std::get<LoadGraphMsg>(out[2]).name, "bench");
    EXPECT_EQ(TypeOf(out[3]), MsgType::kInfoRequest);
    EXPECT_EQ(std::get<SessionDoneMsg>(out[4]).message, "fin");
  }
}

TEST(WireTest, AssemblerPoisonsOnCorruptFrame) {
  FrameAssembler assembler;
  // Oversized length claim: instantly corrupt, and the poison sticks even
  // after valid bytes arrive — a stream that lied once cannot resync.
  const std::vector<uint8_t> bad = {0xff, 0xff, 0xff, 0xff, 0x01};
  assembler.Feed(bad);
  Message message;
  EXPECT_FALSE(assembler.Next(&message).ok());
  const std::vector<uint8_t> good = Encode(HelloMsg{});
  assembler.Feed(good);
  EXPECT_FALSE(assembler.Next(&message).ok());
}

TEST(WireTest, AssemblerPoisonsOnUndecodablePayload) {
  FrameAssembler assembler;
  std::vector<uint8_t> frame = Encode(PingMsg{1});
  frame[4] = 200;  // unknown message type, full frame present
  assembler.Feed(frame);
  Message message;
  EXPECT_FALSE(assembler.Next(&message).ok());
}

TEST(WireTest, AssemblerIdleWithoutInput) {
  FrameAssembler assembler;
  Message message;
  auto produced = assembler.Next(&message);
  ASSERT_TRUE(produced.ok());
  EXPECT_FALSE(produced.value());
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
}

TEST(WireTest, RejectReasonNamesAreStable) {
  EXPECT_STREQ(RejectReasonName(RejectReason::kTooManySessions),
               "too-many-sessions");
  EXPECT_STREQ(RejectReasonName(RejectReason::kDraining), "draining");
  EXPECT_STREQ(RejectReasonName(RejectReason::kUnknownGraph),
               "unknown-graph");
  EXPECT_STREQ(RejectReasonName(RejectReason::kBadOptions), "bad-options");
}

}  // namespace
}  // namespace mbe::serve

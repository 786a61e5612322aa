// B12 — batched candidate frontier: classification cost vs batch width
// across edge densities. MBET classifies every candidate of a node against
// the groups' local neighborhoods; the batched frontier packs up to
// `batch_width` sibling candidates into an interleaved word-transposed
// block and answers the whole window in one streaming pass (one trie walk,
// or one multi-mask kernel sweep) instead of one pass per candidate.
//
// Two sections: (1) an end-to-end width x density sweep, whose "auto"
// column times the workload-adaptive tuner (docs/TUNING.md) — it should
// land near the best fixed width without being told the density; and
// (2) the classification stage in isolation on synthetic node shapes,
// which is where the per-candidate vs batched comparison is visible —
// end-to-end time is dominated by the enumeration work batching leaves
// untouched, so whole-run gains are Amdahl-capped at a few percent while
// the stage itself speeds up well past the 1.3x acceptance bar on dense
// shapes.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "core/neighborhood_trie.h"
#include "core/set_ops.h"
#include "gen/generators.h"
#include "util/bitset.h"
#include "util/random.h"
#include "util/simd.h"
#include "util/timer.h"

namespace {

// Defeats dead-code elimination of the timed classification loops.
volatile uint64_t benchmark_sink = 0;

struct JsonRow {
  std::vector<std::pair<std::string, std::string>> fields;
};

void WriteRows(std::FILE* out, const char* key,
               const std::vector<JsonRow>& rows) {
  std::fprintf(out, "  \"%s\": [", key);
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(out, "%s\n    {", i ? "," : "");
    for (size_t f = 0; f < rows[i].fields.size(); ++f) {
      std::fprintf(out, "%s\n      \"%s\": %s", f ? "," : "",
                   rows[i].fields[f].first.c_str(),
                   mbe::bench::JsonQuote(rows[i].fields[f].second).c_str());
    }
    std::fprintf(out, "\n    }");
  }
  std::fprintf(out, "\n  ]");
}

std::string Fmt(const char* fmt, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

// --- Classification-stage microcosm --------------------------------------
// One MBET node: `groups` immutable local-neighborhood lists over a
// renumbered universe, and a stream of candidate membership sets to
// classify against every group. This isolates the stage the batched
// frontier replaces — per-candidate passes vs one pass per window — from
// the enumeration work around it (child construction, absorption,
// emission), which batching deliberately leaves untouched.

struct NodeShape {
  std::vector<std::vector<mbe::VertexId>> group_lists;
  std::vector<std::span<const mbe::VertexId>> group_spans;
  std::vector<std::vector<mbe::VertexId>> candidates;  // loc lists
  size_t universe = 0;
};

NodeShape MakeNodeShape(double density, size_t universe, size_t groups,
                        size_t num_candidates, mbe::util::Rng& rng) {
  NodeShape shape;
  shape.universe = universe;
  const size_t len = std::max<size_t>(
      4, static_cast<size_t>(density * static_cast<double>(universe)));
  auto random_sorted = [&](size_t n) {
    std::vector<mbe::VertexId> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      out.push_back(static_cast<mbe::VertexId>(rng.Below(universe)));
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  };
  for (size_t g = 0; g < groups; ++g) {
    shape.group_lists.push_back(random_sorted(len));
  }
  for (const auto& l : shape.group_lists) shape.group_spans.emplace_back(l);
  for (size_t c = 0; c < num_candidates; ++c) {
    shape.candidates.push_back(random_sorted(len));
  }
  return shape;
}

struct StageTimes {
  double per_candidate = 0;  ///< seconds, width-1 path over all candidates
  double batched = 0;        ///< seconds, windowed path over all candidates
};

// Trie backend: per-candidate = mask set + ClassifyAll + mask clear per
// candidate (the width-1 code path); batched = interleaved pack + one
// ClassifyAllBatch walk per window.
StageTimes TimeTrieStage(const NodeShape& shape, size_t width, int repeats) {
  mbe::NeighborhoodTrie trie;
  trie.Build(shape.group_spans);
  const size_t n = shape.candidates.size();
  StageTimes times;

  mbe::MembershipMask mask(shape.universe);
  std::vector<uint32_t> counts;
  mbe::util::WallTimer timer;
  for (int r = 0; r < repeats; ++r) {
    for (const auto& cand : shape.candidates) {
      mask.Set(cand);
      benchmark_sink = benchmark_sink + trie.ClassifyAll(mask, &counts);
      mask.Clear(cand);
    }
  }
  times.per_candidate = timer.Seconds();

  const size_t nwords = (shape.universe + 63) / 64;
  std::vector<uint64_t> batch(nwords * width);
  std::vector<uint32_t> batch_counts(shape.group_spans.size() * width);
  timer.Reset();
  for (int r = 0; r < repeats; ++r) {
    for (size_t start = 0; start < n; start += width) {
      const size_t fill = std::min(width, n - start);
      std::fill(batch.begin(), batch.end(), 0);
      for (size_t w = 0; w < fill; ++w) {
        for (mbe::VertexId x : shape.candidates[start + w]) {
          batch[(static_cast<size_t>(x) >> 6) * width + w] |=
              uint64_t{1} << (x & 63);
        }
      }
      benchmark_sink = benchmark_sink + trie.ClassifyAllBatch(
                                            batch.data(), width,
                                            batch_counts.data());
    }
  }
  times.batched = timer.Seconds();
  return times;
}

// Bitmap backend: per-candidate = clear + SetBits + one and_count per
// group per candidate; batched = interleaved pack + one and_count_batch
// sweep per group per window.
StageTimes TimeBitmapStage(const NodeShape& shape, size_t width,
                           int repeats) {
  const size_t nwords = (shape.universe + 63) / 64;
  const size_t groups = shape.group_spans.size();
  std::vector<uint64_t> group_words(groups * nwords, 0);
  for (size_t g = 0; g < groups; ++g) {
    for (mbe::VertexId x : shape.group_lists[g]) {
      group_words[g * nwords + (static_cast<size_t>(x) >> 6)] |=
          uint64_t{1} << (x & 63);
    }
  }
  const mbe::simd::KernelTable& k = mbe::simd::Kernels();
  const size_t n = shape.candidates.size();
  StageTimes times;

  std::vector<uint64_t> cand_words(nwords, 0);
  mbe::util::WallTimer timer;
  for (int r = 0; r < repeats; ++r) {
    for (const auto& cand : shape.candidates) {
      std::fill(cand_words.begin(), cand_words.end(), 0);
      mbe::util::SetBits(cand, cand_words);
      for (size_t g = 0; g < groups; ++g) {
        benchmark_sink =
            benchmark_sink + k.and_count(group_words.data() + g * nwords,
                                         cand_words.data(), nwords);
      }
    }
  }
  times.per_candidate = timer.Seconds();

  std::vector<uint64_t> batch(nwords * width);
  std::vector<uint32_t> counts(groups * width);
  timer.Reset();
  for (int r = 0; r < repeats; ++r) {
    for (size_t start = 0; start < n; start += width) {
      const size_t fill = std::min(width, n - start);
      std::fill(batch.begin(), batch.end(), 0);
      for (size_t w = 0; w < fill; ++w) {
        for (mbe::VertexId x : shape.candidates[start + w]) {
          batch[(static_cast<size_t>(x) >> 6) * width + w] |=
              uint64_t{1} << (x & 63);
        }
      }
      for (size_t g = 0; g < groups; ++g) {
        k.and_count_batch(group_words.data() + g * nwords, batch.data(),
                          nwords, width, counts.data() + g * width);
      }
      benchmark_sink = benchmark_sink + counts[0];
    }
  }
  times.batched = timer.Seconds();
  return times;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mbe;
  util::FlagParser flags;
  bench::AddCommonFlags(&flags);
  flags.AddInt("repeats", 3,
               "timing repeats per cell (the minimum is reported)");
  flags.Parse(argc, argv);
  const double budget = flags.GetDouble("budget");
  const int repeats = std::max<int64_t>(1, flags.GetInt("repeats"));

  bench::PrintBanner("B12",
                     "batched candidate frontier: width x density sweep");

  const std::vector<uint32_t> widths = {1, 8, 16, 32, 64};
  struct Sweep {
    const char* label;
    size_t nl, nr;
    double p;
  };
  // Sizes chosen so the densest cells still finish in well under the
  // default budget on one core; density is the independent variable.
  const Sweep sweeps[] = {
      {"ER d=0.02", 400, 300, 0.02}, {"ER d=0.05", 300, 220, 0.05},
      {"ER d=0.10", 220, 160, 0.10}, {"ER d=0.20", 150, 110, 0.20},
      {"ER d=0.30", 110, 85, 0.30},
  };

  std::vector<std::string> headers = {"dataset", "bicliques"};
  for (uint32_t w : widths) headers.push_back("w=" + std::to_string(w));
  headers.push_back("auto");
  headers.push_back("best/w1");
  headers.push_back("rule");
  bench::Table table(headers);

  std::vector<JsonRow> cell_rows;
  std::vector<JsonRow> tuner_rows;
  double e2e_dense_best = 0.0;

  for (const Sweep& sweep : sweeps) {
    const BipartiteGraph graph =
        gen::ErdosRenyi(sweep.nl, sweep.nr, sweep.p, 12345);

    auto best_of = [&](const RunOptions& options) {
      bench::RunOutcome best;
      for (int r = 0; r < repeats; ++r) {
        bench::RunOutcome run =
            bench::TimedRun(graph, GraphOptions(), options, budget);
        if (r == 0 || run.seconds < best.seconds) best = run;
      }
      return best;
    };

    std::vector<std::string> row = {sweep.label, ""};
    double t_w1 = 0.0, t_best_batched = 0.0;
    for (uint32_t width : widths) {
      RunOptions options;
      options.mbet.batch_width = width;
      const bench::RunOutcome run = best_of(options);
      row[1] = std::to_string(run.bicliques);
      row.push_back(bench::TimeCell(run, budget));
      if (width == 1) {
        t_w1 = run.seconds;
      } else if (t_best_batched == 0.0 || run.seconds < t_best_batched) {
        t_best_batched = run.seconds;
      }
      cell_rows.push_back(
          {{{"dataset", sweep.label},
            {"density", Fmt("%.2f", sweep.p)},
            {"width", std::to_string(width)},
            {"seconds", Fmt("%.6f", run.seconds)},
            {"bicliques", std::to_string(run.bicliques)},
            {"batch_candidates",
             std::to_string(run.stats.batch_candidates_classified)},
            {"batch_kernel_calls",
             std::to_string(run.stats.batch_kernel_calls)}}});
    }

    RunOptions tuned;
    tuned.auto_tune = true;
    const bench::RunOutcome auto_run = best_of(tuned);
    row.push_back(bench::TimeCell(auto_run, budget));

    const double speedup =
        t_best_batched > 0 ? t_w1 / t_best_batched : 0.0;
    if (sweep.p >= 0.10) {
      e2e_dense_best = std::max(e2e_dense_best, speedup);
    }
    row.push_back(Fmt("%.2fx", speedup));
    const char* rule = TunerRuleName(
        static_cast<TunerRule>(auto_run.stats.tuner_rule));
    row.push_back(rule);
    table.AddRow(std::move(row));
    tuner_rows.push_back(
        {{{"dataset", sweep.label},
          {"rule", rule},
          {"tuned_batch_width",
           std::to_string(auto_run.stats.tuned_batch_width)},
          {"tuned_max_split",
           std::to_string(auto_run.stats.tuned_max_split)},
          {"tuned_bitmap_density",
           Fmt("%.3f",
               static_cast<double>(
                   auto_run.stats.tuned_bitmap_density_x1000) /
                   1000.0)},
          {"auto_seconds", Fmt("%.6f", auto_run.seconds)},
          {"speedup_best_batched_vs_w1", Fmt("%.2f", speedup)}}});
  }

  bench::EmitTable(table, flags);

  // --- Classification stage in isolation ---------------------------------
  // End-to-end MBET time is dominated by the work batching leaves alone
  // (child construction, absorption, emission) — on these graphs the
  // classification stage is a single-digit percentage of the run, so even
  // an infinitely fast batch pass moves the whole-run numbers only a few
  // percent (Amdahl; the e2e table above shows it). The speedup the
  // frontier actually delivers is per-candidate vs batched *classification*
  // on the same node shapes, measured here on both backends.
  std::printf("\nclassification stage: per-candidate vs batched, same node "
              "shape\n(universe 2048, 64 groups, 256 candidates; cells are "
              "speedup vs the\nper-candidate path of the same backend)\n\n");
  std::vector<std::string> cheaders = {"density", "backend", "per-cand"};
  for (uint32_t w : widths) {
    if (w > 1) cheaders.push_back("w=" + std::to_string(w));
  }
  bench::Table ctable(cheaders);
  std::vector<JsonRow> classify_rows;
  double dense_best_speedup = 0.0;

  for (const Sweep& sweep : sweeps) {
    mbe::util::Rng rng(0x9e3779b97f4a7c15ULL ^
                       static_cast<uint64_t>(sweep.p * 1000.0));
    const NodeShape shape = MakeNodeShape(sweep.p, 2048, 64, 256, rng);
    // Keep the timed region ~tens of ms on every row: sparse shapes do
    // far less work per pass, so they get proportionally more iterations.
    const int iters = std::max(10, static_cast<int>(6.0 / sweep.p));

    struct Backend {
      const char* label;
      StageTimes (*time)(const NodeShape&, size_t, int);
    };
    const Backend backends[] = {
        {"trie", &TimeTrieStage},
        {"bitmap", &TimeBitmapStage},
    };
    for (const Backend& backend : backends) {
      std::vector<std::string> row = {Fmt("%.2f", sweep.p), backend.label};
      bool first_width = true;
      for (uint32_t width : widths) {
        if (width <= 1) continue;
        StageTimes best;
        for (int r = 0; r < repeats; ++r) {
          const StageTimes t = backend.time(shape, width, iters);
          if (r == 0 || t.per_candidate < best.per_candidate) {
            best.per_candidate = t.per_candidate;
          }
          if (r == 0 || t.batched < best.batched) best.batched = t.batched;
        }
        if (first_width) {
          row.insert(row.begin() + 2,
                     Fmt("%.2fms", best.per_candidate * 1e3 / iters));
          first_width = false;
        }
        const double speedup =
            best.batched > 0 ? best.per_candidate / best.batched : 0.0;
        if (sweep.p >= 0.10) {
          dense_best_speedup = std::max(dense_best_speedup, speedup);
        }
        row.push_back(Fmt("%.2fx", speedup));
        classify_rows.push_back(
            {{{"density", Fmt("%.2f", sweep.p)},
              {"backend", backend.label},
              {"width", std::to_string(width)},
              {"per_candidate_seconds",
               Fmt("%.6f", best.per_candidate / iters)},
              {"batched_seconds", Fmt("%.6f", best.batched / iters)},
              {"speedup", Fmt("%.3f", speedup)}}});
      }
      ctable.AddRow(std::move(row));
    }
  }
  ctable.Print();

  std::printf("\nbest batched classification speedup on the dense shapes "
              "(d >= 0.10): %.2fx (bar: 1.3x)\n",
              dense_best_speedup);
  std::printf("best end-to-end speedup on the dense sweep (d >= 0.10): "
              "%.2fx (classification is a small share of total runtime; "
              "see note)\n",
              e2e_dense_best);

  if (!bench::JsonRecordingAllowed(flags)) return 1;
  if (const std::string json = flags.GetString("json"); !json.empty()) {
    std::FILE* out = std::fopen(json.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write JSON to %s\n", json.c_str());
      return 1;
    }
    char flag_summary[64];
    std::snprintf(flag_summary, sizeof(flag_summary),
                  "--budget %g --repeats %d", budget, repeats);
    std::fprintf(out, "{\n");
    bench::WriteJsonContext(
        out, argv[0], flag_summary,
        "width 1 is the per-candidate classification path; wider widths "
        "share one streaming pass (trie walk or multi-mask kernel) across "
        "the window. All widths are output-identical (enforced by "
        "simd_test and pmbe_selfcheck); only the time and the batch "
        "counters move. dense_best_speedup (the >= 1.3 acceptance bar) is "
        "per-candidate vs batched on the classification stage itself "
        "(classification_cells): end-to-end runs are dominated by the "
        "enumeration work batching leaves untouched, so whole-run dense "
        "gains (end_to_end_dense_best_speedup, cells) are Amdahl-capped "
        "at a few percent on these graphs.");
    std::fprintf(out, ",\n  \"dense_best_speedup\": %.3f,\n",
                 dense_best_speedup);
    std::fprintf(out, "  \"end_to_end_dense_best_speedup\": %.3f,\n",
                 e2e_dense_best);
    WriteRows(out, "classification_cells", classify_rows);
    std::fprintf(out, ",\n");
    WriteRows(out, "cells", cell_rows);
    std::fprintf(out, ",\n");
    WriteRows(out, "tuner", tuner_rows);
    std::fprintf(out, "\n}\n");
    std::fclose(out);
    std::printf("\n(json written to %s)\n", json.c_str());
  }
  return 0;
}

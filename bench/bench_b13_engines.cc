// B13 — engine head-to-head: MBET (prefix tree) vs iMBEA (baseline) vs BBK
// (pivot-free left extension) across the dataset registry, plus the
// engine-aware auto-tuner's pick on every dataset.
//
// Two acceptance claims live here (ISSUE 9 / docs/TUNING.md):
//  * BBK is faster than MBET on the sparse/skewed registry shapes (wall
//    time, same output set — count-identity is asserted every run);
//  * `--tune` selects the faster of the two interchangeable engines on
//    >= 90% of registry entries (ties within 10% count for either side —
//    the registry re-materializes per run, so sub-10% gaps are noise).
//
// The JSON artifact (bench/BENCH_engines.json) records per dataset: wall
// time and node counts per engine, the tuner's rule and engine pick, and
// the summary fractions the CI smoke leg and docs quote.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "core/tuner.h"
#include "util/stats.h"

namespace {

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

}  // namespace

int main(int argc, char** argv) {
  using namespace mbe;
  util::FlagParser flags;
  bench::AddCommonFlags(&flags);
  flags.AddInt("repeats", 3,
               "timing repeats per cell (the minimum is reported)");
  flags.Parse(argc, argv);
  const double scale = flags.GetDouble("scale");
  const double budget = flags.GetDouble("budget");
  const int repeats = std::max<int64_t>(1, flags.GetInt("repeats"));
  const unsigned threads = static_cast<unsigned>(flags.GetInt("threads"));

  bench::PrintBanner(
      "B13", "engine head-to-head: MBET vs iMBEA vs BBK + tuner pick");

  struct EngineCol {
    const char* label;
    Algorithm algorithm;
  };
  const EngineCol engines[] = {
      {"mbet", Algorithm::kMbet},
      {"imbea", Algorithm::kImbea},
      {"bbk", Algorithm::kBbk},
  };

  bench::Table table({"dataset", "bicliques", "mbet", "imbea", "bbk",
                      "bbk/mbet", "rule", "pick", "tuned", "pick ok"});
  std::vector<JsonRow> rows;
  size_t tuner_correct = 0, tuner_total = 0;
  size_t bbk_wins_sparse = 0, sparse_total = 0;
  bool counts_identical = true;

  for (const std::string& name :
       bench::ResolveSuite(flags.GetString("suite"))) {
    const gen::DatasetSpec& spec = gen::FindDataset(name);
    const BipartiteGraph graph = gen::Materialize(spec, scale);

    auto best_of = [&](const RunOptions& options) {
      bench::RunOutcome best;
      for (int r = 0; r < repeats; ++r) {
        bench::RunOutcome run =
            bench::TimedRun(graph, GraphOptions(), options, budget);
        if (r == 0 || run.seconds < best.seconds) best = run;
      }
      return best;
    };

    std::vector<std::string> row = {spec.name, ""};
    double seconds[3] = {0, 0, 0};
    uint64_t nodes[3] = {0, 0, 0};
    uint64_t counts[3] = {0, 0, 0};
    bool all_completed = true;
    for (size_t e = 0; e < 3; ++e) {
      RunOptions options;
      options.algorithm = engines[e].algorithm;
      options.threads = threads;
      const bench::RunOutcome run = best_of(options);
      seconds[e] = run.seconds;
      nodes[e] = run.stats.nodes_expanded;
      counts[e] = run.bicliques;
      all_completed = all_completed && run.completed;
      row[1] = std::to_string(run.bicliques);
      row.push_back(bench::TimeCell(run, budget));
    }
    // A budget-truncated run holds a valid prefix, not the full count;
    // identity is only checkable when all three engines finished.
    if (all_completed && (counts[0] != counts[1] || counts[0] != counts[2])) {
      counts_identical = false;
      std::fprintf(stderr,
                   "COUNT MISMATCH on %s: mbet=%llu imbea=%llu bbk=%llu\n",
                   spec.name.c_str(),
                   static_cast<unsigned long long>(counts[0]),
                   static_cast<unsigned long long>(counts[1]),
                   static_cast<unsigned long long>(counts[2]));
    }
    const double bbk_vs_mbet =
        seconds[2] > 0 ? seconds[0] / seconds[2] : 0.0;
    row.push_back(Fmt("%.2fx", bbk_vs_mbet));

    RunOptions tuned;
    tuned.auto_tune = true;
    tuned.threads = threads;
    const bench::RunOutcome tuned_run = best_of(tuned);
    const TunerRule rule =
        static_cast<TunerRule>(tuned_run.stats.tuner_rule);
    const TunerEngine pick =
        static_cast<TunerEngine>(tuned_run.stats.tuned_algorithm);
    row.push_back(TunerRuleName(rule));
    row.push_back(TunerEngineName(pick));
    row.push_back(bench::TimeCell(tuned_run, budget));

    // The pick is "correct" when the chosen engine's measured time is
    // within 10% of the faster of the two (so ties count for either side).
    const double t_pick =
        pick == TunerEngine::kBbk ? seconds[2] : seconds[0];
    const double t_best = std::min(seconds[0], seconds[2]);
    const bool pick_ok =
        pick != TunerEngine::kNone && t_pick <= t_best * 1.10;
    ++tuner_total;
    tuner_correct += pick_ok ? 1 : 0;
    row.push_back(pick_ok ? "yes" : "NO");
    if (rule == TunerRule::kSparse || rule == TunerRule::kSkewed) {
      ++sparse_total;
      bbk_wins_sparse += seconds[2] <= seconds[0] * 1.10 ? 1 : 0;
    }
    table.AddRow(std::move(row));

    rows.push_back(
        {{{"dataset", spec.name},
          {"bicliques", std::to_string(counts[0])},
          {"mbet_seconds", Fmt("%.6f", seconds[0])},
          {"imbea_seconds", Fmt("%.6f", seconds[1])},
          {"bbk_seconds", Fmt("%.6f", seconds[2])},
          {"mbet_nodes", std::to_string(nodes[0])},
          {"imbea_nodes", std::to_string(nodes[1])},
          {"bbk_nodes", std::to_string(nodes[2])},
          {"bbk_speedup_vs_mbet", Fmt("%.3f", bbk_vs_mbet)},
          {"tuner_rule", TunerRuleName(rule)},
          {"tuner_engine", TunerEngineName(pick)},
          {"tuned_seconds", Fmt("%.6f", tuned_run.seconds)},
          {"tuner_pick_ok", pick_ok ? "yes" : "no"}}});
  }
  bench::EmitTable(table, flags);

  const double correct_frac =
      tuner_total > 0
          ? static_cast<double>(tuner_correct) /
                static_cast<double>(tuner_total)
          : 0.0;
  std::printf("\ncounts identical across engines: %s\n",
              counts_identical ? "yes" : "NO");
  std::printf("tuner picked the faster engine on %zu/%zu datasets "
              "(%.0f%%; bar: 90%%)\n",
              tuner_correct, tuner_total, correct_frac * 100.0);
  std::printf("BBK at least ties MBET on %zu/%zu sparse/skewed datasets\n",
              bbk_wins_sparse, sparse_total);

  if (!bench::JsonRecordingAllowed(flags)) return 1;
  if (const std::string json = flags.GetString("json"); !json.empty()) {
    std::FILE* out = std::fopen(json.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write JSON to %s\n", json.c_str());
      return 1;
    }
    char flag_summary[96];
    std::snprintf(flag_summary, sizeof(flag_summary),
                  "--suite %s --scale %g --budget %g --repeats %d",
                  flags.GetString("suite").c_str(), scale, budget, repeats);
    std::fprintf(out, "{\n");
    bench::WriteJsonContext(
        out, argv[0], flag_summary,
        "per-dataset wall time and node counts for the three engines "
        "(count-identity asserted at run time), plus the auto-tuner's rule "
        "and engine pick. tuner_correct_fraction is the >= 0.90 acceptance "
        "bar: the tuned engine's time within 10% of the faster of "
        "MBET/BBK. Engines differ in traversal, not output: the digest "
        "matrix (session_pool_test, pmbe_selfcheck) proves the sets "
        "identical.");
    std::fprintf(out, ",\n  \"counts_identical\": %s,\n",
                 counts_identical ? "true" : "false");
    std::fprintf(out, "  \"tuner_correct_fraction\": %.3f,\n", correct_frac);
    std::fprintf(out, "  \"tuner_correct\": %zu,\n", tuner_correct);
    std::fprintf(out, "  \"tuner_total\": %zu,\n", tuner_total);
    WriteRows(out, "datasets", rows);
    std::fprintf(out, "\n}\n");
    std::fclose(out);
    std::printf("\n(json written to %s)\n", json.c_str());
  }
  return counts_identical ? 0 : 1;
}

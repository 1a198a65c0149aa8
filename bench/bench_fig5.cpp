// The suite bench: every table the paper measures on the 20-trace suite,
// all from one replay grid. Figure 5 comes first; each later table reads
// the arms it shares with Figure 5 from the grid instead of replaying them.
//
// Figure 5: overall write amplification per trace. The paper reports
// WA = (F - U)/U per trace (bars, 0–150 %) and a final "Normalized
// average" group where each scheme's mean WA is normalized to Base.
// Headline claim: PHFTL reduces overall WA by 65.1 % vs Base and
// 22.8–54.6 % vs the rule-based schemes.
//
// Table I: Page Classifier accuracy / precision / recall / F1 of the PHFTL
// runs. As in the paper (§V-A), ground truth is each page's real lifetime:
// every prediction is scored when the page's true lifetime becomes known
// (its next write), with still-unwritten pages resolved as long-living at
// end of trace. Paper averages: accuracy 0.909, precision 0.834, recall
// 0.921, F1 0.867; trace #38 is the adversarial outlier (F1 0.323).
//
// §V-B: metadata-cache effectiveness in the PHFTL runs. The paper reports
// that the 1%-of-meta-pages RAM cache serves 98.2–99.9% of ML metadata
// retrievals. Per trace: the cache hit rate, the meta-page flash reads
// (also per thousand host writes) and the cache's RAM.
//
// §V-C: "When we truncate the length of the feature sequence to 1,
// prediction accuracy drops by up to 9.2% (4.0% on average)." Table I's
// accuracy (history 8) against a history-1 run, on an 8-trace subset.
//
// Design ablations (not paper tables) of PHFTL's two adaptive mechanisms:
//  1. Algorithm 1's adaptive labeling threshold against one frozen at the
//     first window's inflection point, on the phase-shifting traces.
//  2. Eq. 1's Adjusted Greedy victims against plain Greedy and
//     Cost-Benefit under PHFTL, with GC efficiency and wear columns, and
//     the baselines' own policies (Base and 2R Cost-Benefit, SepBIT
//     Greedy) for reference.
//
// Per-stream attribution: each scheme's host and flash pages per stream,
// summed over the suite. A stream whose flash pages far exceed its host
// pages absorbs relocation traffic; a hot stream near 1:1 separates well.
//
// `--out <path>` writes the grid as an artifact (schema
// "phftl-bench-fig5/1", EXPERIMENTS.md): one row per cell in grid order
// with its exact WA and write and erase counts, plus Table I's confusion
// counts on PHFTL rows. BENCH_fig5_6dw.json and BENCH_fig5_20dw.json are
// committed, and tools/check_artifacts.py regenerates and compares them.
//
// Runtime is controlled by PHFTL_DRIVE_WRITES (default 6; the paper replays
// 20 drive writes — set PHFTL_DRIVE_WRITES=20 for the full-fidelity run) and
// by `--jobs N` (default one per usable CPU; each cell is an independent
// run, so output and artifacts are identical under any job count).
#include <algorithm>
#include <array>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "util/table.hpp"

namespace {

using namespace phftl;
using bench::PhftlArm;
using bench::SuiteRunResult;

/// The ablations' trace subsets, in suite order.
const std::vector<std::string> kSeqlenTraces = {
    "#52", "#58", "#144", "#177", "#721", "#126", "#223", "#679"};
const std::vector<std::string> kPhaseTraces = {"#107", "#225", "#748"};
const std::vector<std::string> kGcTraces = {"#52", "#141", "#144", "#721"};

/// The grid's result for one trace under one scheme label.
const SuiteRunResult& find_cell(const std::vector<SuiteRunResult>& grid,
                                const std::string& trace,
                                const std::string& scheme) {
  const auto it = std::find_if(
      grid.begin(), grid.end(), [&](const SuiteRunResult& r) {
        return r.trace_id == trace && r.scheme == scheme;
      });
  PHFTL_CHECK_MSG(it != grid.end(), "no such grid cell");
  return *it;
}

/// Table I from the PHFTL run of each suite trace, in suite order.
void print_table1(const std::vector<SuiteRunResult>& grid) {
  std::printf("Table I: Page Classifier performance, PHFTL runs above\n\n");
  TextTable table;
  table.header({"trace", "size", "accuracy", "precision", "recall", "F1",
                "predictions"});
  double sum_acc = 0, sum_p = 0, sum_r = 0, sum_f1 = 0;
  for (const SuiteTraceSpec& spec : alibaba_suite()) {
    const auto& cm = find_cell(grid, spec.id, "PHFTL").classifier;
    table.row({spec.id, spec.size_label,
               TextTable::num(cm.accuracy()), TextTable::num(cm.precision()),
               TextTable::num(cm.recall()), TextTable::num(cm.f1()),
               std::to_string(cm.total())});
    sum_acc += cm.accuracy();
    sum_p += cm.precision();
    sum_r += cm.recall();
    sum_f1 += cm.f1();
  }
  const double n = static_cast<double>(alibaba_suite().size());
  table.row({"Average", "-", TextTable::num(sum_acc / n),
             TextTable::num(sum_p / n), TextTable::num(sum_r / n),
             TextTable::num(sum_f1 / n), "-"});
  table.render(std::cout);

  std::printf(
      "\nPaper averages: accuracy 0.909, precision 0.834, recall 0.921, "
      "F1 0.867\nMeasured:       accuracy %.3f, precision %.3f, recall "
      "%.3f, F1 %.3f\n",
      sum_acc / n, sum_p / n, sum_r / n, sum_f1 / n);
}

/// §V-B's metadata-cache table from the same PHFTL runs.
void print_cache(const std::vector<SuiteRunResult>& grid) {
  std::printf("Metadata cache effectiveness (1%% of meta pages in RAM), "
              "PHFTL runs above\n\n");
  TextTable table;
  table.header({"trace", "cache hit rate", "meta flash reads",
                "per 1k host writes", "cache RAM"});
  double min_hit = 1.0, max_hit = 0.0, sum_hit = 0.0;
  for (const SuiteTraceSpec& spec : alibaba_suite()) {
    const SuiteRunResult& res = find_cell(grid, spec.id, "PHFTL");
    const double hit = res.cache_hit_rate;
    min_hit = std::min(min_hit, hit);
    max_hit = std::max(max_hit, hit);
    sum_hit += hit;
    const double per_k = 1000.0 * static_cast<double>(res.stats.meta_reads) /
                         static_cast<double>(res.stats.user_writes);
    // The cache's RAM follows from the trace's geometry alone.
    core::MetaStore::Config mc;
    mc.geom = suite_geometry(spec);
    const core::MetaStore meta(mc);
    table.row({res.trace_id, TextTable::pct(hit, 2),
               std::to_string(res.stats.meta_reads), TextTable::num(per_k, 2),
               TextTable::num(static_cast<double>(meta.cache_capacity_bytes()) /
                                  1024.0, 0) + " KiB"});
  }
  table.render(std::cout);

  std::printf(
      "\nPaper: the metadata cache serves 98.2-99.9%% of retrievals.\n"
      "Measured hit rate: min %.2f%%, max %.2f%%, mean %.2f%%\n",
      min_hit * 100.0, max_hit * 100.0,
      sum_hit / static_cast<double>(alibaba_suite().size()) * 100.0);
}

/// §V-C: Table I's accuracy (history 8) against the history-1 arm.
void print_seqlen(const std::vector<SuiteRunResult>& grid) {
  std::printf("\nFeature-sequence ablation (paper V-C): history 8 (Table I's "
              "runs) vs 1\n\n");
  TextTable table;
  table.header({"trace", "acc (seq=8)", "acc (seq=1)", "drop"});
  double sum_drop = 0.0, max_drop = 0.0;
  for (const std::string& id : kSeqlenTraces) {
    const double full = find_cell(grid, id, "PHFTL").classifier.accuracy();
    const double trunc =
        find_cell(grid, id, "PHFTL/history1").classifier.accuracy();
    sum_drop += full - trunc;
    max_drop = std::max(max_drop, full - trunc);
    table.row({id, TextTable::num(full), TextTable::num(trunc),
               TextTable::num((full - trunc) * 100.0, 1) + "pp"});
  }
  table.render(std::cout);
  std::printf(
      "\nPaper: truncation to length 1 costs up to 9.2 points (4.0 on "
      "average).\nMeasured: up to %.1f points (%.1f on average over %zu "
      "traces).\n",
      max_drop * 100.0,
      sum_drop / static_cast<double>(kSeqlenTraces.size()) * 100.0,
      kSeqlenTraces.size());
}

/// Ablation 1: Algorithm 1's adaptive threshold against a frozen one.
void print_threshold_ablation(const std::vector<SuiteRunResult>& grid) {
  std::printf("\nAblation 1: adaptive threshold (Algorithm 1) vs frozen "
              "threshold,\nphase-shifting traces\n\n");
  TextTable table;
  table.header({"trace", "WA adaptive", "WA frozen", "acc adaptive",
                "acc frozen"});
  for (const std::string& id : kPhaseTraces) {
    const SuiteRunResult& adaptive = find_cell(grid, id, "PHFTL");
    const SuiteRunResult& frozen =
        find_cell(grid, id, "PHFTL/frozen-threshold");
    table.row({id, TextTable::pct(adaptive.wa), TextTable::pct(frozen.wa),
               TextTable::num(adaptive.classifier.accuracy()),
               TextTable::num(frozen.classifier.accuracy())});
  }
  table.render(std::cout);
}

/// Ablation 2: PHFTL's victim policies beside the baselines' own, with GC
/// efficiency and the erase-count spread of each run.
void print_victim_ablation(const std::vector<SuiteRunResult>& grid) {
  std::printf("\nAblation 2: GC victim policy (Eq. 1), with the baselines' "
              "own policies\n\n");
  const std::vector<std::pair<std::string, std::string>> rows = {
      {"Base", "Base+CB"},
      {"2R", "2R+CB"},
      {"SepBIT", "SepBIT+Greedy"},
      {"PHFTL", "PHFTL+AdjGreedy"},
      {"PHFTL/greedy", "PHFTL+Greedy"},
      {"PHFTL/cost-benefit", "PHFTL+CB"}};
  TextTable table;
  table.header({"trace", "configuration", "WA", "copies/erase", "erases",
                "wear mean", "wear max", "wear sd"});
  for (const std::string& id : kGcTraces) {
    for (const auto& [scheme, label] : rows) {
      const SuiteRunResult& r = find_cell(grid, id, scheme);
      const double cpe = r.stats.erases
                             ? static_cast<double>(r.stats.gc_writes) /
                                   static_cast<double>(r.stats.erases)
                             : 0.0;
      table.row({id, label, TextTable::pct(r.wa), TextTable::num(cpe, 1),
                 std::to_string(r.stats.erases),
                 TextTable::num(r.erase_counts.mean(), 1),
                 TextTable::num(r.erase_counts.max(), 0),
                 TextTable::num(r.erase_counts.stddev(), 1)});
    }
  }
  table.render(std::cout);
  std::printf(
      "\ncopies/erase is the GC efficiency metric: the average number of\n"
      "still-valid pages migrated per collected superblock (0 = perfect\n"
      "separation). Wear columns show erase-count distribution across\n"
      "superblocks — lower WA directly extends device lifetime.\n");
}

/// Per-stream attribution: each scheme's host and flash pages per stream,
/// summed over the Figure 5 runs.
void print_stream_attribution(const std::vector<SuiteRunResult>& grid,
                              const std::vector<std::string>& schemes) {
  std::printf("\nPer-stream WA attribution over the Figure 5 runs\n\n");
  for (const std::string& scheme : schemes) {
    std::array<double, kMaxStreams> host{}, flash{};
    std::uint32_t streams = 0;
    double host_total = 0.0, flash_total = 0.0;
    double wa_min = 1e9, wa_max = 0.0;
    for (const SuiteTraceSpec& spec : alibaba_suite()) {
      const SuiteRunResult& r = find_cell(grid, spec.id, scheme);
      host_total += static_cast<double>(r.stats.user_writes);
      flash_total += static_cast<double>(r.stats.flash_writes());
      wa_min = std::min(wa_min, r.wa);
      wa_max = std::max(wa_max, r.wa);
      streams = r.streams;
      for (std::uint32_t i = 0; i < streams; ++i) {
        host[i] += static_cast<double>(r.stats.stream_host_writes[i]);
        flash[i] += static_cast<double>(r.stats.stream_flash_writes[i]);
      }
    }

    // Suite WA uses the paper's §V-B convention, (F - U) / U, matching the
    // per-trace write_amplification() values.
    std::printf("=== %s (suite WA %.4f, per-trace %.4f..%.4f) ===\n",
                scheme.c_str(),
                host_total > 0 ? (flash_total - host_total) / host_total : 0.0,
                wa_min, wa_max);
    TextTable t;
    t.header({"stream", "host pages", "flash pages", "flash share",
              "reloc ratio"});
    for (std::uint32_t i = 0; i < streams; ++i) {
      // reloc ratio: programmed pages per host page classified here — ~1.0
      // means the stream barely relocates (good separation), > 1 means GC
      // keeps re-copying its contents, and host=0 streams are GC-fed.
      t.row({"stream" + std::to_string(i), TextTable::num(host[i], 0),
             TextTable::num(flash[i], 0),
             TextTable::pct(flash_total > 0 ? flash[i] / flash_total : 0.0),
             host[i] > 0 ? TextTable::num(flash[i] / host[i], 3)
                         : "gc-fed"});
    }
    t.render(std::cout);
    std::printf("\n");
  }
  std::printf(
      "Reading: WA reduction shows up as hot streams near reloc ratio 1.0\n"
      "(their pages die before GC touches them) and relocation traffic\n"
      "concentrated in the cold/GC-fed streams. See EXPERIMENTS.md.\n");
}

/// The grid artifact: one row per cell, in grid order. WA is printed at
/// full precision so a fresh replay can be compared with it exactly.
std::string grid_json(double drive_writes,
                      const std::vector<bench::GridCell>& cells,
                      const std::vector<SuiteRunResult>& results) {
  const auto num = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  std::ostringstream js;
  js << "{\n  \"schema\": \"phftl-bench-fig5/1\",\n"
     << "  \"drive_writes\": " << num(drive_writes) << ",\n"
     << "  \"cells\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SuiteRunResult& r = results[i];
    js << "    {\"trace\": \"" << r.trace_id << "\", \"scheme\": \""
       << r.scheme << "\", \"wa\": " << num(r.wa)
       << ", \"user_writes\": " << r.stats.user_writes
       << ", \"gc_writes\": " << r.stats.gc_writes
       << ", \"erases\": " << r.stats.erases;
    if (cells[i].scheme == "PHFTL") {
      const ConfusionMatrix& cm = r.classifier;
      js << ", \"tp\": " << cm.tp() << ", \"fp\": " << cm.fp()
         << ", \"tn\": " << cm.tn() << ", \"fn\": " << cm.fn();
    }
    js << "}" << (i + 1 < results.size() ? ",\n" : "\n");
  }
  js << "  ]\n}\n";
  return js.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  const unsigned jobs = bench::jobs_from_cli(argc, argv, &out_path);
  const double drive_writes = drive_writes_from_env(6.0);
  const std::vector<std::string>& schemes = kSchemeNames;

  // Figure 5's cells come first, trace-major, so BENCH_metrics.json starts
  // with them; then one cell per PHFTL ablation arm no Figure 5 cell runs.
  std::vector<bench::GridCell> cells;
  for (const auto& spec : alibaba_suite())
    for (const auto& scheme : schemes)
      cells.push_back({&spec, scheme, drive_writes, {}});
  const auto add_arm = [&](const std::vector<std::string>& ids,
                           PhftlArm arm) {
    for (const std::string& id : ids)
      cells.push_back({&suite_spec(id), "PHFTL", drive_writes, {arm}});
  };
  add_arm(kSeqlenTraces, PhftlArm::kHistory1);
  add_arm(kPhaseTraces, PhftlArm::kFrozenThreshold);
  add_arm(kGcTraces, PhftlArm::kGreedy);
  add_arm(kGcTraces, PhftlArm::kCostBenefit);

  std::printf("Figure 5: overall write amplification, %.1f drive writes "
              "(paper: 20; set PHFTL_DRIVE_WRITES to change), %u job(s)\n\n",
              drive_writes, util::grid_threads(jobs, cells.size()));
  const auto results = bench::run_suite_grid(jobs, cells);
  // WA reduction of `wa` against `ref`, in percent. A zero reference (no
  // GC yet, as for Base, 2R and SepBIT at PHFTL_DRIVE_WRITES=1) has none.
  const auto reduction = [](double wa, double ref) {
    return ref > 0.0 ? TextTable::num((1.0 - wa / ref) * 100.0, 1) + "%"
                     : std::string("n/a");
  };

  TextTable table;
  table.header({"trace", "size", "Base", "2R", "SepBIT", "PHFTL",
                "PHFTL vs Base"});
  std::vector<double> sums(schemes.size(), 0.0);

  std::size_t i = 0;
  for (const auto& spec : alibaba_suite()) {
    std::vector<double> wa(schemes.size());
    for (std::size_t s = 0; s < schemes.size(); ++s, ++i) {
      wa[s] = results[i].wa;
      sums[s] += results[i].wa;
    }
    table.row({spec.id, spec.size_label, TextTable::pct(wa[0]),
               TextTable::pct(wa[1]), TextTable::pct(wa[2]),
               TextTable::pct(wa[3]), reduction(wa[3], wa[0])});
  }

  // Normalized average (Fig. 5 rightmost group): mean WA over traces,
  // normalized to Base.
  const double n = static_cast<double>(alibaba_suite().size());
  std::vector<double> avg(schemes.size());
  for (std::size_t s = 0; s < schemes.size(); ++s) avg[s] = sums[s] / n;
  table.row({"Average", "-", TextTable::pct(avg[0]), TextTable::pct(avg[1]),
             TextTable::pct(avg[2]), TextTable::pct(avg[3]),
             reduction(avg[3], avg[0])});
  table.render(std::cout);

  std::printf("\nNormalized average (Base = 1.00):\n");
  for (std::size_t s = 0; s < schemes.size(); ++s)
    std::printf("  %-7s %s\n", schemes[s].c_str(),
                avg[0] > 0.0 ? TextTable::num(avg[s] / avg[0]).c_str()
                             : "n/a");
  std::printf(
      "\nPaper: PHFTL cuts average WA 65.1%% vs Base, 22.8-54.6%% vs "
      "rule-based schemes.\nMeasured: %s vs Base, %s vs 2R, %s vs SepBIT.\n",
      reduction(avg[3], avg[0]).c_str(), reduction(avg[3], avg[1]).c_str(),
      reduction(avg[3], avg[2]).c_str());

  print_table1(results);
  print_cache(results);
  print_seqlen(results);
  print_threshold_ablation(results);
  print_victim_ablation(results);
  print_stream_attribution(results, schemes);

  if (!out_path.empty()) {
    if (!obs::write_text_file(out_path,
                              grid_json(drive_writes, cells, results))) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

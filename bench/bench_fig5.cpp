// Figure 5, Table I and §V-B reproduction, all from one replay grid: each
// of the 20 suite traces under Base / 2R / SepBIT / PHFTL.
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
// Runtime is controlled by PHFTL_DRIVE_WRITES (default 6; the paper replays
// 20 drive writes — set PHFTL_DRIVE_WRITES=20 for the full-fidelity run) and
// by `--jobs N` / PHFTL_JOBS (each trace×scheme cell is an independent run;
// output and artifacts are identical under any job count).
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "util/table.hpp"

namespace {

using namespace phftl;

/// Table I from the PHFTL run of each suite trace, in suite order.
void print_table1(const std::vector<const bench::SuiteRunResult*>& phftl) {
  std::printf("Table I: Page Classifier performance, PHFTL runs above\n\n");
  TextTable table;
  table.header({"trace", "size", "accuracy", "precision", "recall", "F1",
                "predictions"});
  double sum_acc = 0, sum_p = 0, sum_r = 0, sum_f1 = 0;
  for (std::size_t t = 0; t < phftl.size(); ++t) {
    const auto& cm = phftl[t]->classifier;
    table.row({phftl[t]->trace_id, alibaba_suite()[t].size_label,
               TextTable::num(cm.accuracy()), TextTable::num(cm.precision()),
               TextTable::num(cm.recall()), TextTable::num(cm.f1()),
               std::to_string(cm.total())});
    sum_acc += cm.accuracy();
    sum_p += cm.precision();
    sum_r += cm.recall();
    sum_f1 += cm.f1();
  }
  const double n = static_cast<double>(phftl.size());
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
void print_cache(const std::vector<const bench::SuiteRunResult*>& phftl) {
  std::printf("Metadata cache effectiveness (1%% of meta pages in RAM), "
              "PHFTL runs above\n\n");
  TextTable table;
  table.header({"trace", "cache hit rate", "meta flash reads",
                "per 1k host writes", "cache RAM"});
  double min_hit = 1.0, max_hit = 0.0, sum_hit = 0.0;
  for (std::size_t t = 0; t < phftl.size(); ++t) {
    const bench::SuiteRunResult& res = *phftl[t];
    const double hit = res.cache_hit_rate;
    min_hit = std::min(min_hit, hit);
    max_hit = std::max(max_hit, hit);
    sum_hit += hit;
    const double per_k = 1000.0 * static_cast<double>(res.stats.meta_reads) /
                         static_cast<double>(res.stats.user_writes);
    // The cache's RAM follows from the trace's geometry alone.
    core::MetaStore::Config mc;
    mc.geom = suite_geometry(alibaba_suite()[t]);
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
      sum_hit / static_cast<double>(phftl.size()) * 100.0);
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned jobs = bench::jobs_from_cli(argc, argv);
  const double drive_writes = drive_writes_from_env(6.0);
  const std::vector<std::string> schemes = {"Base", "2R", "SepBIT", "PHFTL"};

  std::printf("Figure 5: overall write amplification, %.1f drive writes "
              "(paper: 20; set PHFTL_DRIVE_WRITES to change), %u job(s)\n\n",
              drive_writes, jobs);

  std::vector<bench::GridCell> cells;
  for (const auto& spec : alibaba_suite())
    for (const auto& scheme : schemes)
      cells.push_back({&spec, scheme, drive_writes, {}});
  const auto results = bench::ExperimentRunner(jobs).run(cells);
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
  std::vector<const bench::SuiteRunResult*> phftl;

  std::size_t i = 0;
  for (const auto& spec : alibaba_suite()) {
    std::vector<double> wa(schemes.size());
    for (std::size_t s = 0; s < schemes.size(); ++s, ++i) {
      wa[s] = results[i].wa;
      sums[s] += results[i].wa;
    }
    phftl.push_back(&results[i - 1]);  // PHFTL is each trace's last cell
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

  print_table1(phftl);
  print_cache(phftl);
  return 0;
}

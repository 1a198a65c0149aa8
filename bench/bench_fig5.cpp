// Figure 5 reproduction: overall write amplification of Base / 2R / SepBIT /
// PHFTL on the 20-trace suite, plus the normalized average.
//
// The paper reports WA = (F - U)/U per trace (bars, 0–150 %) and a final
// "Normalized average" group where each scheme's mean WA is normalized to
// Base. Headline claim: PHFTL reduces overall WA by 65.1 % vs Base and
// 22.8–54.6 % vs the rule-based schemes.
//
// Runtime is controlled by PHFTL_DRIVE_WRITES (default 6; the paper replays
// 20 drive writes — set PHFTL_DRIVE_WRITES=20 for the full-fidelity run) and
// by `--jobs N` / PHFTL_JOBS (each trace×scheme cell is an independent run;
// output and artifacts are identical under any job count).
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace phftl;

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
  return 0;
}

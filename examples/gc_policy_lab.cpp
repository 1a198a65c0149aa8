// GC policy lab: compare victim-selection policies and inspect wear.
//
// Runs PHFTL with each GC policy (Adjusted Greedy / Greedy / Cost-Benefit)
// and the rule-based baselines on one workload, reporting WA, GC efficiency
// (average valid pages migrated per collected superblock), and wear
// statistics (erase-count spread across superblocks).
//
// Usage: gc_policy_lab [<suite trace id>]   (default #141)
#include <cstdio>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <vector>

#include "baselines/base_ftl.hpp"
#include "baselines/sepbit.hpp"
#include "baselines/two_r.hpp"
#include "core/phftl.hpp"
#include "trace/alibaba_suite.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace phftl;

namespace {

struct RunRow {
  std::string label;
  FtlStats stats;
  RunningStats wear;
};

RunRow run(std::unique_ptr<FtlBase> ftl, const Trace& trace,
           std::string label) {
  for (const auto& req : trace.ops) ftl->submit(req);
  RunRow row;
  row.label = std::move(label);
  row.stats = ftl->stats();
  for (std::uint64_t sb = 0; sb < ftl->config().geom.num_superblocks(); ++sb)
    row.wear.add(static_cast<double>(ftl->flash().erase_count(sb)));
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const util::FlagParser flags("gc_policy_lab");
  if (argc > 2)
    flags.bad_value("a second argument", argv[2],
                    "expected one suite trace id at most");
  const char* trace_id = argc > 1 ? argv[1] : "#141";
  SuiteTraceSpec spec;
  try {
    spec = suite_spec(trace_id);
  } catch (const std::runtime_error&) {
    std::string ids;
    for (const SuiteTraceSpec& s : alibaba_suite())
      ids += (ids.empty() ? "" : " ") + s.id;
    flags.bad_value("the trace id", trace_id, "expected a suite id: " + ids);
  }
  const FtlConfig cfg = suite_ftl_config(spec);
  const Trace trace = make_suite_trace(spec, 4.0);

  std::printf("GC policy lab on trace %s (4 drive writes)\n\n", trace_id);

  std::vector<RunRow> rows;
  rows.push_back(run(std::make_unique<BaseFtl>(cfg), trace, "Base+CB"));
  rows.push_back(run(std::make_unique<TwoRFtl>(cfg), trace, "2R+CB"));
  rows.push_back(run(std::make_unique<SepBitFtl>(cfg), trace, "SepBIT+Greedy"));
  for (const auto& [policy, name] :
       std::vector<std::pair<core::PhftlConfig::GcPolicy, std::string>>{
           {core::PhftlConfig::GcPolicy::kAdjustedGreedy, "PHFTL+AdjGreedy"},
           {core::PhftlConfig::GcPolicy::kGreedy, "PHFTL+Greedy"},
           {core::PhftlConfig::GcPolicy::kCostBenefit, "PHFTL+CB"}}) {
    core::PhftlConfig pcfg = core::default_phftl_config(cfg);
    pcfg.gc_policy = policy;
    rows.push_back(run(std::make_unique<core::PhftlFtl>(pcfg), trace, name));
  }

  TextTable table;
  table.header({"configuration", "WA", "copies/erase", "erases",
                "wear mean", "wear max", "wear sd"});
  for (const auto& row : rows) {
    const double cpe =
        row.stats.erases
            ? static_cast<double>(row.stats.gc_writes) /
                  static_cast<double>(row.stats.erases)
            : 0.0;
    table.row({row.label, TextTable::pct(row.stats.write_amplification()),
               TextTable::num(cpe, 1), std::to_string(row.stats.erases),
               TextTable::num(row.wear.mean(), 1),
               TextTable::num(row.wear.max(), 0),
               TextTable::num(row.wear.stddev(), 1)});
  }
  table.render(std::cout);
  std::printf(
      "\ncopies/erase is the GC efficiency metric: the average number of\n"
      "still-valid pages migrated per collected superblock (0 = perfect\n"
      "separation). Wear columns show erase-count distribution across\n"
      "superblocks — lower WA directly extends device lifetime.\n");
  return 0;
}

// Lifetime-to-ENOSPC: writes each scheme sustains before the P/E budget
// retires enough superblocks that the drive goes read-only
// (docs/ENDURANCE.md §"Lifetime methodology").
//
// Every cell (scheme × wear-leveling on/off) runs the identical workload on
// a small drive with a deliberately tiny per-superblock P/E budget: prefill
// 80 % of the logical space sequentially, then issue skewed overwrites
// (90 % of traffic into a hot 15 % of the prefilled range) until the first
// kEnospc rejection. The skew is the point: without leveling, data
// separation concentrates erases on the blocks cycling hot data, so those
// superblocks exhaust their budget while cold blocks retire with cycles
// unspent — the drive dies with budget left on the table. Static wear
// leveling converts that unspent budget into extra host writes.
//
// Reported per cell: host pages written until ENOSPC (the lifetime,
// normalized to drive writes), WA, budget retirements, leveling activity,
// and the final erase-count spread.
//
// Usage: bench_lifetime [--jobs N] [--budget N] [--smoke] [--out <path>]
// Writes BENCH_lifetime.json (schema "phftl-bench-lifetime/1" — see
// EXPERIMENTS.md). --smoke shrinks the budget for a seconds-scale CI run.
// The job count is --jobs; 0 or absent means one per usable CPU. A numeric
// flag whose whole token is not an integer in its range (--jobs [0, 256];
// --budget [0, 1000000], 0 = 60) exits with status 2.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace phftl;

FtlConfig lifetime_config(std::uint64_t budget, bool wear_level) {
  FtlConfig cfg;  // 4 dies x 64 blocks x 16 pages x 4 KB = 64 superblocks
  cfg.geom.num_dies = 4;
  cfg.geom.blocks_per_die = 64;
  cfg.geom.pages_per_block = 16;
  cfg.geom.page_size = 4 * 1024;
  cfg.geom.oob_size = 128;
  cfg.op_ratio = 0.10;
  cfg.max_pe_cycles = budget;
  cfg.wear_level_threshold = wear_level ? 4 : 0;
  return cfg;
}

struct CellResult {
  std::string scheme;
  bool wear_level = false;
  std::uint64_t host_pages = 0;   ///< accepted host writes until first ENOSPC
  double drive_writes = 0.0;      ///< host_pages / logical capacity
  double wa = 0.0;
  std::uint64_t erases = 0;
  std::uint64_t wear_retired = 0;
  std::uint64_t wl_rounds = 0;
  std::uint64_t wl_migrations = 0;
  double final_spread = 0.0;
  bool exhausted = false;  ///< ENOSPC arrived before the iteration cap
};

CellResult run_cell(const std::string& scheme, bool wear_level,
                    std::uint64_t budget) {
  const FtlConfig cfg = lifetime_config(budget, wear_level);
  auto ftl = bench::make_scheme(scheme, cfg);

  CellResult r;
  r.scheme = scheme;
  r.wear_level = wear_level;

  const std::uint64_t logical = ftl->logical_pages();
  const std::uint64_t fill = logical * 8 / 10;
  const std::uint64_t hot = std::max<std::uint64_t>(fill * 15 / 100, 1);
  std::uint64_t ts_us = 0;
  auto write_one = [&](Lpn lpn) {
    HostRequest req;
    req.timestamp_us = ts_us;
    ts_us += 40;
    req.op = OpType::kWrite;
    req.start_lpn = lpn;
    const SubmitResult res = ftl->submit_checked(req);
    if (res.status == WriteResult::kOk) ++r.host_pages;
    return res.status;
  };

  for (Lpn lpn = 0; lpn < fill; ++lpn) {
    if (write_one(lpn) != WriteResult::kOk) {
      std::fprintf(stderr, "%s: ENOSPC during prefill (budget too small)\n",
                   scheme.c_str());
      std::exit(1);
    }
  }

  // Overwrite until end-of-life. The cap is far above the device's total
  // erase budget (superblocks x cycles x pages/superblock), so hitting it
  // means ENOSPC never arrived; the result is flagged, not fabricated.
  const Geometry& g = cfg.geom;
  const std::uint64_t device_budget = g.num_superblocks() * budget *
                                      g.pages_per_superblock();
  const std::uint64_t cap = device_budget * 4;
  Xoshiro256 rng(20260809);  // same seed per cell: identical offered writes
  for (std::uint64_t w = 0; w < cap; ++w) {
    const Lpn lpn =
        rng.next_bool(0.9) ? rng.next_below(hot) : rng.next_below(fill);
    if (write_one(lpn) == WriteResult::kEnospc) {
      r.exhausted = true;
      break;
    }
  }

  ftl->drain();
  const FtlStats& s = ftl->stats();
  r.drive_writes = static_cast<double>(r.host_pages) /
                   static_cast<double>(logical);
  r.wa = s.write_amplification();
  r.erases = s.erases;
  r.wear_retired = s.wear_retired;
  r.wl_rounds = s.wl_rounds;
  r.wl_migrations = s.wl_migrations;
  r.final_spread = ftl->wear_spread();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const phftl::util::FlagParser flags("bench_lifetime");
  unsigned jobs = 0;
  std::uint64_t budget = 60;
  bool budget_set = false;
  bool smoke = false;
  std::string out_path = "BENCH_lifetime.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--jobs" && i + 1 < argc) {
      jobs = phftl::bench::parse_jobs(flags, argv[++i]);
    } else if (arg == "--budget" && i + 1 < argc) {
      budget = flags.parse_uint(arg, argv[++i], 0, 1000000);
      budget_set = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(
          stderr, "usage: %s [--jobs N] [--budget N] [--smoke] [--out <path>]\n",
          argv[0]);
      return 2;
    }
  }
  if (smoke && !budget_set) budget = 12;
  if (budget == 0) budget = 60;
  // Cell 2s is scheme s with wear leveling off, 2s + 1 with it on.
  const std::size_t n = kSchemeNames.size() * 2;
  const unsigned threads = phftl::util::grid_threads(jobs, n);

  std::printf("Lifetime to ENOSPC: %zu schemes x {WL off, WL on}, "
              "P/E budget %llu, %u jobs\n\n",
              kSchemeNames.size(), static_cast<unsigned long long>(budget),
              threads);

  const std::vector<CellResult> cells =
      phftl::util::run_grid(threads, n, [budget](std::size_t i) {
        return run_cell(kSchemeNames[i / 2], i % 2 == 1, budget);
      });

  phftl::TextTable t;
  t.header({"scheme", "wear leveling", "host pages", "drive writes", "WA",
            "erases", "retired", "WL rounds", "WL pages", "final spread"});
  for (std::size_t i = 0; i < cells.size(); i += 2) {
    const CellResult& off = cells[i];
    const CellResult& on = cells[i + 1];
    for (const CellResult* c : {&off, &on}) {
      t.row({c->scheme, c->wear_level ? "on" : "off",
             std::to_string(c->host_pages) + (c->exhausted ? "" : " (cap!)"),
             phftl::TextTable::num(c->drive_writes, 2),
             phftl::TextTable::num(c->wa, 4), std::to_string(c->erases),
             std::to_string(c->wear_retired), std::to_string(c->wl_rounds),
             std::to_string(c->wl_migrations),
             phftl::TextTable::num(c->final_spread, 2)});
    }
  }
  t.render(std::cout);
  for (std::size_t i = 0; i < cells.size(); i += 2) {
    const double gain = cells[i].host_pages > 0
                            ? (static_cast<double>(cells[i + 1].host_pages) /
                                   static_cast<double>(cells[i].host_pages) -
                               1.0) * 100.0
                            : 0.0;
    std::printf("%-7s lifetime %+.1f%% with wear leveling\n",
                cells[i].scheme.c_str(), gain);
  }

  std::ostringstream js;
  js << "{\n  \"schema\": \"phftl-bench-lifetime/1\",\n"
     << "  \"max_pe_cycles\": " << budget << ",\n"
     << "  \"wear_level_threshold\": 4,\n"
     << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    char wa_buf[64];
    std::snprintf(wa_buf, sizeof(wa_buf), "%.4f", c.wa);
    char spread_buf[64];
    std::snprintf(spread_buf, sizeof(spread_buf), "%.2f", c.final_spread);
    js << "    {\"scheme\": \"" << c.scheme << "\", \"wear_level\": "
       << (c.wear_level ? "true" : "false")
       << ", \"host_pages\": " << c.host_pages
       << ", \"wa\": " << wa_buf << ", \"erases\": " << c.erases
       << ", \"wear_retired\": " << c.wear_retired
       << ", \"wl_rounds\": " << c.wl_rounds
       << ", \"wl_migrations\": " << c.wl_migrations
       << ", \"final_spread\": " << spread_buf
       << ", \"exhausted\": " << (c.exhausted ? "true" : "false") << "}"
       << (i + 1 < cells.size() ? ",\n" : "\n");
  }
  js << "  ]\n}\n";
  if (!phftl::obs::write_text_file(out_path, js.str())) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

// Mapping-tier RAM/performance trade-off: sweep the cached-mapping-table
// (CMT) size for each scheme, with the learned index off and on, and report
// RAM footprint vs read and write amplification (docs/MAPPING.md
// §"RAM-budget methodology" and §"Learned index").
//
// Every cell runs the identical workload: prefill 80 % of the logical
// space sequentially, then a skewed overwrite/read mix (60 % writes, 90 %
// of them into a hot 15 % of the prefilled range; 40 % uniform reads).
// The tier-off cell (cmt_pages = 0 in the artifact) anchors the flat
// in-RAM L2P baseline: 8 bytes per logical page, no extra flash traffic.
// Tier-on cells pay the DFTL double-read penalty — CMT misses on the host
// read path fetch a translation page from flash — and dirty write-back
// batches plus translation-page GC add flash writes that WA charges
// honestly (trans_writes is inside flash_writes()). Learned-on cells route
// CMT misses through the piecewise-linear model first: a verified probe
// replaces the translation-page fetch, and wasted probes are charged into
// the read-amp numerator, so the column compares honestly.
//
// The first 10 % of the mix (--warmup, documented in EXPERIMENTS.md) is
// treated as cache/model warmup: read-amp, CMT hit rate, and mispredict
// rate are computed from post-warmup deltas so cold-start misses do not
// pollute the steady-state columns. WA stays whole-run (prefill included),
// matching every other bench artifact.
//
// A second sweep ("tb_sweep" in the artifact) shrinks tp_entries on a
// 4 GiB drive to emulate multi-TB GTD geometry: halving tp_entries doubles
// the translation-page count exactly as a bigger drive would, so
// emulated_capacity_bytes = num_tps x (page_size / 8) x page_size is the
// capacity a full-entry GTD of that size would map. The columns show GTD
// RAM growing linearly with num_tps while the learned model stays nearly
// flat — the sub-linear scaling claim in docs/MAPPING.md.
//
// Usage: bench_mapping [--jobs N] [--ops-per-page X] [--warmup F]
//                      [--smoke] [--out <path>]
// Writes BENCH_mapping.json (schema "phftl-bench-mapping/3" — see
// EXPERIMENTS.md). --smoke shrinks the drive and the default op count
// (0.5 ops per page instead of 2) for a seconds-scale CI run; an explicit
// --ops-per-page wins in either order. Both sweeps run as one grid of
// --jobs threads (0 or absent = one per usable CPU). A numeric flag whose
// whole token is not a number in its range (--jobs [0, 256]; --ops-per-page
// [0, 1000]; --warmup [0, 1)) exits with status 2.
#include <cstdio>
#include <functional>
#include <iostream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace phftl;

FtlConfig mapping_config(bool smoke, std::uint64_t cmt_pages, bool learned) {
  FtlConfig cfg;  // 8 dies x 128 blocks x 32 pages x 4 KB = 128 MiB
  cfg.geom.num_dies = 8;
  cfg.geom.blocks_per_die = smoke ? 32 : 128;
  cfg.geom.pages_per_block = 32;
  cfg.geom.page_size = 4 * 1024;
  cfg.geom.oob_size = 128;
  cfg.op_ratio = 0.10;
  if (cmt_pages > 0) {
    cfg.mapping_tier = true;
    cfg.cmt_pages = cmt_pages;
    // Batch at most 8 dirty evictions; smaller CMTs batch less so the
    // write-back buffer never dwarfs the table it backs.
    cfg.cmt_wb_batch = std::min<std::uint64_t>(cmt_pages, 8);
    cfg.learned_index = learned;
  }
  return cfg;
}

// Multi-TB emulation geometry: a 4 GiB drive (512 MiB under --smoke) whose
// tp_entries knob is swept down so the translation-page population matches
// drives orders of magnitude larger.
FtlConfig tb_config(bool smoke, std::uint64_t tp_entries, bool learned) {
  FtlConfig cfg;  // 8 dies x 512 blocks x 64 pages x 16 KB = 4 GiB
  cfg.geom.num_dies = 8;
  cfg.geom.blocks_per_die = smoke ? 64 : 512;
  cfg.geom.pages_per_block = 64;
  cfg.geom.page_size = 16 * 1024;
  cfg.geom.oob_size = 128;
  cfg.op_ratio = 0.40;
  cfg.mapping_tier = true;
  cfg.cmt_pages = 64;
  cfg.cmt_wb_batch = 8;
  cfg.tp_entries = tp_entries;
  cfg.learned_index = learned;
  return cfg;
}

struct CellResult {
  std::string scheme;
  std::uint64_t cmt_pages = 0;  ///< 0 = mapping tier off (flat L2P)
  bool learned = false;
  std::uint64_t host_pages = 0;
  std::uint64_t host_reads = 0;
  double wa = 0.0;            ///< whole-run, prefill included
  double read_amp = 1.0;      ///< post-warmup delta
  double cmt_hit_rate = 0.0;  ///< post-warmup delta
  std::uint64_t trans_writes = 0;
  std::uint64_t trans_gc_writes = 0;
  std::uint64_t trans_reads = 0;
  std::uint64_t learned_hits = 0;        ///< post-warmup delta
  std::uint64_t learned_mispredicts = 0; ///< post-warmup delta
  double mispredict_rate = 0.0;          ///< post-warmup delta
  std::uint64_t learned_segments = 0;
  std::uint64_t learned_ram_bytes = 0;
  std::uint64_t ram_bytes = 0;       ///< GTD + CMT + WB buffer + model
  std::uint64_t flat_ram_bytes = 0;  ///< 8 B per logical page baseline
  std::uint64_t num_tps = 0;
  std::uint64_t tp_entries = 0;
  std::uint64_t emulated_capacity_bytes = 0;  ///< tb_sweep rows only
};

// Drives the shared prefill + skewed-mix workload against `ftl`, snapshots
// stats at the warmup boundary, and fills the delta-based columns.
void run_workload(FtlBase& ftl, double ops_per_page, double warmup_fraction,
                  CellResult& r) {
  const std::uint64_t logical = ftl.logical_pages();
  const std::uint64_t fill = logical * 8 / 10;
  const std::uint64_t hot = std::max<std::uint64_t>(fill * 15 / 100, 1);
  std::uint64_t ts_us = 0;
  auto write_one = [&](Lpn lpn) {
    HostRequest req;
    req.timestamp_us = ts_us;
    ts_us += 40;
    req.op = OpType::kWrite;
    req.start_lpn = lpn;
    const SubmitResult res = ftl.submit_checked(req);
    if (res.status == WriteResult::kOk) ++r.host_pages;
  };

  for (Lpn lpn = 0; lpn < fill; ++lpn) write_one(lpn);

  // Same seed per cell: every scheme x CMT size x learned setting sees the
  // identical offered stream, so the artifact isolates the tier's cost.
  Xoshiro256 rng(20260809);
  const auto ops = static_cast<std::uint64_t>(
      static_cast<double>(logical) * ops_per_page);
  const auto warm_ops = static_cast<std::uint64_t>(
      static_cast<double>(ops) * warmup_fraction);
  FtlStats warm = ftl.stats();
  for (std::uint64_t op = 0; op < ops; ++op) {
    if (op == warm_ops) warm = ftl.stats();
    if (rng.next_bool(0.6)) {
      write_one(rng.next_bool(0.9) ? rng.next_below(hot)
                                   : rng.next_below(fill));
    } else {
      (void)ftl.read_page(rng.next_below(fill));
    }
  }
  ftl.drain();

  const FtlStats& s = ftl.stats();
  r.host_reads = s.host_reads;
  r.wa = s.write_amplification();
  // The read-path fields both post-warmup ratios read.
  FtlStats delta;
  delta.host_reads = s.host_reads - warm.host_reads;
  delta.host_reads_unmapped = s.host_reads_unmapped - warm.host_reads_unmapped;
  delta.trans_reads_host = s.trans_reads_host - warm.trans_reads_host;
  delta.learned_probe_reads_host =
      s.learned_probe_reads_host - warm.learned_probe_reads_host;
  delta.cmt_hits = s.cmt_hits - warm.cmt_hits;
  delta.cmt_misses = s.cmt_misses - warm.cmt_misses;
  r.read_amp = delta.host_read_amplification();
  r.cmt_hit_rate = delta.cmt_hit_rate();
  r.trans_writes = s.trans_writes;
  r.trans_gc_writes = s.trans_gc_writes;
  r.trans_reads = s.trans_reads;
  r.learned_hits = s.learned_hits - warm.learned_hits;
  r.learned_mispredicts = s.learned_mispredicts - warm.learned_mispredicts;
  const std::uint64_t consulted = r.learned_hits + r.learned_mispredicts;
  r.mispredict_rate =
      consulted == 0 ? 0.0
                     : static_cast<double>(r.learned_mispredicts) /
                           static_cast<double>(consulted);
  r.learned_segments = ftl.learned_segments();
  r.learned_ram_bytes = ftl.learned_index_bytes();
  r.flat_ram_bytes = logical * 8;
  r.ram_bytes = ftl.mapping_tier_enabled() ? ftl.mapping_ram_bytes()
                                           : r.flat_ram_bytes;
  const MappingTier* tier = ftl.mapping_tier();
  r.num_tps = tier ? tier->num_translation_pages() : 0;
  r.tp_entries = tier ? tier->tp_entries() : 0;
}

CellResult run_cell(const std::string& scheme, std::uint64_t cmt_pages,
                    bool learned, bool smoke, double ops_per_page,
                    double warmup_fraction) {
  const FtlConfig cfg = mapping_config(smoke, cmt_pages, learned);
  auto ftl = bench::make_scheme(scheme, cfg);

  CellResult r;
  r.scheme = scheme;
  r.cmt_pages = cmt_pages;
  r.learned = learned;
  run_workload(*ftl, ops_per_page, warmup_fraction, r);
  return r;
}

CellResult run_tb_cell(std::uint64_t tp_entries, bool learned, bool smoke,
                       double ops_per_page, double warmup_fraction) {
  const FtlConfig cfg = tb_config(smoke, tp_entries, learned);
  auto ftl = bench::make_scheme("Base", cfg);

  CellResult r;
  r.scheme = "Base";
  r.cmt_pages = cfg.cmt_pages;
  r.learned = learned;
  run_workload(*ftl, ops_per_page, warmup_fraction, r);
  // Capacity a full-entry GTD with this many translation pages would map.
  const std::uint64_t full_entries = cfg.geom.page_size / 8;
  r.emulated_capacity_bytes = r.num_tps * full_entries * cfg.geom.page_size;
  return r;
}

void emit_cell_json(std::ostringstream& js, const CellResult& c, bool tb_row,
                    bool last) {
  char wa_buf[64], ra_buf[64], hit_buf[64], mis_buf[64];
  std::snprintf(wa_buf, sizeof(wa_buf), "%.4f", c.wa);
  std::snprintf(ra_buf, sizeof(ra_buf), "%.4f", c.read_amp);
  std::snprintf(hit_buf, sizeof(hit_buf), "%.4f", c.cmt_hit_rate);
  std::snprintf(mis_buf, sizeof(mis_buf), "%.6f", c.mispredict_rate);
  js << "    {\"scheme\": \"" << c.scheme
     << "\", \"cmt_pages\": " << c.cmt_pages
     << ", \"learned\": " << (c.learned ? "true" : "false")
     << ", \"ram_bytes\": " << c.ram_bytes
     << ", \"flat_ram_bytes\": " << c.flat_ram_bytes
     << ", \"num_translation_pages\": " << c.num_tps
     << ", \"tp_entries\": " << c.tp_entries;
  if (tb_row) {
    js << ", \"gtd_bytes\": " << c.num_tps * 8
       << ", \"emulated_capacity_bytes\": " << c.emulated_capacity_bytes;
  }
  js << ", \"host_pages\": " << c.host_pages
     << ", \"host_reads\": " << c.host_reads << ", \"wa\": " << wa_buf
     << ", \"read_amplification\": " << ra_buf
     << ", \"cmt_hit_rate\": " << hit_buf
     << ", \"trans_writes\": " << c.trans_writes
     << ", \"trans_gc_writes\": " << c.trans_gc_writes
     << ", \"trans_reads\": " << c.trans_reads
     << ", \"learned_hits\": " << c.learned_hits
     << ", \"learned_mispredicts\": " << c.learned_mispredicts
     << ", \"mispredict_rate\": " << mis_buf
     << ", \"learned_segments\": " << c.learned_segments
     << ", \"learned_ram_bytes\": " << c.learned_ram_bytes << "}"
     << (last ? "\n" : ",\n");
}

}  // namespace

int main(int argc, char** argv) {
  const phftl::util::FlagParser flags("bench_mapping");
  unsigned jobs = 0;
  bool smoke = false;
  std::optional<double> ops_flag;
  double warmup_fraction = 0.10;
  std::string out_path = "BENCH_mapping.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--jobs" && i + 1 < argc) {
      jobs = phftl::bench::parse_jobs(flags, argv[++i]);
    } else if (arg == "--ops-per-page" && i + 1 < argc) {
      ops_flag = flags.parse_real(arg, argv[++i], 0.0, 1000.0);
    } else if (arg == "--warmup" && i + 1 < argc) {
      const char* text = argv[++i];
      warmup_fraction = flags.parse_real(arg, text, 0.0, 1.0);
      if (warmup_fraction == 1.0)
        flags.bad_value(arg, text, "expected a number in [0, 1)");
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--jobs N] [--ops-per-page X] [--warmup F] "
                   "[--smoke] [--out <path>]\n",
                   argv[0]);
      return 2;
    }
  }
  // --smoke only changes the default, whatever the flag order.
  const double ops_per_page = ops_flag.value_or(smoke ? 0.5 : 2.0);

  const std::vector<std::uint64_t> cmt_sizes = {0, 2, 4, 8, 16};
  const std::vector<std::uint64_t> tb_tp_entries = {2048, 256, 32, 2};
  // One grid: the CMT sweep's cells, then the multi-TB sweep's.
  std::vector<std::function<CellResult()>> grid;
  for (const auto& scheme : kSchemeNames)
    for (const std::uint64_t cmt : cmt_sizes)
      for (const bool learned : {false, true}) {
        if (cmt == 0 && learned) continue;  // model needs the tier
        grid.push_back([=] {
          return run_cell(scheme, cmt, learned, smoke, ops_per_page,
                          warmup_fraction);
        });
      }
  const std::size_t sweep_cells = grid.size();
  for (const std::uint64_t tp : tb_tp_entries)
    for (const bool learned : {false, true})
      grid.push_back([=] {
        return run_tb_cell(tp, learned, smoke, ops_per_page, warmup_fraction);
      });
  const unsigned threads = phftl::util::grid_threads(jobs, grid.size());
  std::printf("Mapping-tier sweep: %zu schemes x %zu CMT sizes "
              "(0 = flat L2P) x learned off/on, %zu-point multi-TB "
              "tp_entries sweep, %g ops per page, %u jobs\n\n",
              kSchemeNames.size(), cmt_sizes.size(), tb_tp_entries.size(),
              ops_per_page, threads);

  const std::vector<CellResult> results = phftl::util::run_grid(
      threads, grid.size(), [&grid](std::size_t i) { return grid[i](); });
  const std::span<const CellResult> cells(results.data(), sweep_cells);
  const std::span<const CellResult> tb_cells =
      std::span(results).subspan(sweep_cells);

  phftl::TextTable t;
  t.header({"scheme", "CMT pages", "learned", "mapping RAM", "vs flat", "WA",
            "read amp", "CMT hit rate", "mispredict", "model RAM"});
  for (const CellResult& c : cells) {
    const double reduction =
        c.ram_bytes == 0 ? 0.0
                         : static_cast<double>(c.flat_ram_bytes) /
                               static_cast<double>(c.ram_bytes);
    t.row({c.scheme, c.cmt_pages == 0 ? "off" : std::to_string(c.cmt_pages),
           c.cmt_pages == 0 ? "-" : (c.learned ? "on" : "off"),
           std::to_string(c.ram_bytes) + " B",
           phftl::TextTable::num(reduction, 1) + "x",
           phftl::TextTable::num(c.wa, 4),
           phftl::TextTable::num(c.read_amp, 3),
           phftl::TextTable::num(c.cmt_hit_rate * 100.0, 1) + "%",
           c.learned ? phftl::TextTable::num(c.mispredict_rate * 100.0, 2) +
                           "%"
                     : "-",
           c.learned ? std::to_string(c.learned_ram_bytes) + " B" : "-"});
  }
  t.render(std::cout);

  std::printf("\nMulti-TB GTD emulation (scheme Base, cmt_pages 64; "
              "emulated capacity = num_tps x full-entry TP span):\n");
  phftl::TextTable tb;
  tb.header({"tp_entries", "learned", "emulated cap", "num TPs", "GTD RAM",
             "model RAM", "segments", "read amp", "mispredict"});
  for (const CellResult& c : tb_cells) {
    const double gib =
        static_cast<double>(c.emulated_capacity_bytes) / (1ull << 30);
    tb.row({std::to_string(c.tp_entries), c.learned ? "on" : "off",
            phftl::TextTable::num(gib, 1) + " GiB",
            std::to_string(c.num_tps), std::to_string(c.num_tps * 8) + " B",
            c.learned ? std::to_string(c.learned_ram_bytes) + " B" : "-",
            c.learned ? std::to_string(c.learned_segments) : "-",
            phftl::TextTable::num(c.read_amp, 3),
            c.learned ? phftl::TextTable::num(c.mispredict_rate * 100.0, 2) +
                            "%"
                      : "-"});
  }
  tb.render(std::cout);

  std::ostringstream js;
  js << "{\n  \"schema\": \"phftl-bench-mapping/3\",\n"
     << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
     << "  \"ops_per_page\": " << ops_per_page << ",\n"
     << "  \"warmup_fraction\": " << warmup_fraction << ",\n"
     << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i)
    emit_cell_json(js, cells[i], /*tb_row=*/false, i + 1 == cells.size());
  js << "  ],\n  \"tb_sweep\": [\n";
  for (std::size_t i = 0; i < tb_cells.size(); ++i)
    emit_cell_json(js, tb_cells[i], /*tb_row=*/true,
                   i + 1 == tb_cells.size());
  js << "  ]\n}\n";
  if (!phftl::obs::write_text_file(out_path, js.str())) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

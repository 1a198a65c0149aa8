// Crash lab: randomized power-cut replay harness (docs/RECOVERY.md).
//
// For each scheme, the lab runs a seeded hot/cold workload against a small
// drive, cuts power at a random acknowledged-write index, remounts via
// FtlBase::recover(), and checks the recovery contract with HostOracle
// (docs/RECOVERY.md "The contract") right after the remount and again after
// the rest of the workload ran on the remounted drive:
//   * every page acknowledged (written and not trimmed) reads back its exact
//     payload,
//   * every other page, trimmed and not rewritten or never written, is
//     unmapped (the trim journal's durability guarantee — RECOVERY.md "Trim
//     semantics"),
//   * FtlBase's structural invariants hold (check_invariants: per-superblock
//     valid counts, the victim index, mapping ownership, wear lower bounds).
//
// Optional NAND fault injection stresses the degradation paths at the same
// time: program failures force block retirements, erase failures shrink the
// drive, and recovery must still hold. Under heavy fault rates the capacity
// watermark may sink below the mapped count; the lab's writes are admission-
// checked (HostOracle::write) and a kEnospc is a clean skip (the page is
// simply not acknowledged), never a failure.
//
// Every (scheme, cut) cell is an independent drive + workload, so `--jobs N`
// runs them concurrently (0 or absent = one job per usable CPU): all cut
// indices are pre-drawn from the seed RNG in the serial order, each cell
// buffers its report, and reports print in (scheme, cut) order — output is
// identical under any job count. --cuts is at most the lab's write count,
// the range cut points are drawn from.
//
// Usage:
//   crash_lab [--scheme Base|2R|SepBIT|PHFTL|all] [--cuts N] [--seed S]
//             [--jobs N] [--program-fail-prob p] [--erase-fail-prob p]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/schemes.hpp"
#include "flash/fault_injector.hpp"
#include "ftl/host_oracle.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/team.hpp"

using namespace phftl;

namespace {

FtlConfig lab_config() {
  FtlConfig cfg;
  cfg.geom.num_dies = 4;
  cfg.geom.blocks_per_die = 64;
  cfg.geom.pages_per_block = 16;
  cfg.geom.page_size = 4096;
  cfg.op_ratio = 0.10;
  return cfg;
}

struct WorkloadOp {
  enum Kind : std::uint8_t { kWrite, kRead, kTrim } kind;
  Lpn lpn;
};

/// Seeded hot/cold single-page workload: 80 % writes (half to a hot 10 % of
/// the space), 10 % reads, 10 % trims.
std::vector<WorkloadOp> make_workload(std::uint64_t logical_pages,
                                      std::uint64_t num_writes,
                                      std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const std::uint64_t hot_span = std::max<std::uint64_t>(logical_pages / 10, 1);
  std::vector<WorkloadOp> ops;
  std::uint64_t writes = 0;
  while (writes < num_writes) {
    const double p = rng.next_double();
    WorkloadOp op;
    if (p < 0.8) {
      op.kind = WorkloadOp::kWrite;
      op.lpn = rng.next_bool(0.5) ? rng.next_below(hot_span)
                                  : rng.next_below(logical_pages);
      ++writes;
    } else if (p < 0.9) {
      op.kind = WorkloadOp::kRead;
      op.lpn = rng.next_below(logical_pages);
    } else {
      op.kind = WorkloadOp::kTrim;
      op.lpn = rng.next_below(logical_pages);
    }
    ops.push_back(op);
  }
  return ops;
}

struct CutOutcome {
  bool ok = false;
  std::string report;
};

CutOutcome run_one_cut(const std::string& scheme, std::uint64_t cut,
                       std::uint64_t workload_seed,
                       const FaultInjector::Config& fc, bool with_faults) {
  std::ostringstream out;
  char buf[256];
  FtlConfig cfg = lab_config();
  FaultInjector injector(fc);
  if (with_faults) cfg.fault_injector = &injector;
  core::PhftlConfig pc = core::default_phftl_config(cfg, /*seed=*/99);
  // Lighten PHFTL's trainer: the lab replays each workload up to the cut
  // many times; classification quality is not under test here.
  pc.trainer.max_window_samples = 512;
  pc.trainer.train_per_class = 64;
  std::unique_ptr<FtlBase> ftl = make_scheme(scheme, pc);

  const std::uint64_t total_writes = ftl->logical_pages() * 3;
  const std::vector<WorkloadOp> ops =
      make_workload(ftl->logical_pages(), total_writes, workload_seed);

  HostOracle oracle(ftl->logical_pages());
  const auto contract_holds = [&](const char* when) {
    const std::string report = oracle.check(*ftl);
    if (report.empty()) return true;
    std::snprintf(buf, sizeof(buf),
                  "%s: cut at %llu: recovery contract violated after %s\n",
                  scheme.c_str(), static_cast<unsigned long long>(cut), when);
    out << report << buf;
    return false;
  };
  WriteContext ctx;
  std::uint64_t writes_done = 0;
  std::uint64_t enospc = 0;
  RecoveryReport rep;
  // The cut lands mid-workload; the rest runs on the remounted drive, which
  // must keep working, and the contract is checked again at the end.
  for (const WorkloadOp& op : ops) {
    switch (op.kind) {
      case WorkloadOp::kWrite:
        // A rejection at the watermark leaves the page unacknowledged.
        if (oracle.write(*ftl, op.lpn, ctx) != WriteResult::kOk) ++enospc;
        if (++writes_done == cut) {  // power cut: RAM state vanishes here
          rep = ftl->recover();
          if (!contract_holds("recovery")) return {false, out.str()};
        }
        break;
      case WorkloadOp::kRead:
        ftl->read_page(op.lpn);
        break;
      case WorkloadOp::kTrim:
        oracle.trim(*ftl, op.lpn);
        break;
    }
  }
  if (!contract_holds("resume")) return {false, out.str()};

  std::snprintf(
      buf, sizeof(buf),
      "  %-6s cut@%-6llu ok  (%llu OOB scans, %llu mapped, %llu trim "
      "records replayed, %llu open closed, %llu ENOSPC, %.2f ms)\n",
      scheme.c_str(), static_cast<unsigned long long>(cut),
      static_cast<unsigned long long>(rep.oob_scans),
      static_cast<unsigned long long>(rep.mapped_lpns),
      static_cast<unsigned long long>(rep.trim_records_replayed),
      static_cast<unsigned long long>(rep.open_sbs_closed),
      static_cast<unsigned long long>(enospc),
      static_cast<double>(rep.rebuild_ns) * 1e-6);
  out << buf;
  return {true, out.str()};
}

}  // namespace

int main(int argc, char** argv) {
  std::string scheme = "all";
  std::uint64_t cuts = 5;
  std::uint64_t seed = 2024;
  unsigned jobs = 0;
  FaultInjector::Config fc;
  bool with_faults = false;

  const util::FlagParser flags("crash_lab");
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "usage: crash_lab [--scheme <name>|all] [--cuts N] "
                     "[--seed S] [--jobs N] [--program-fail-prob p] "
                     "[--erase-fail-prob p]\n");
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--scheme") scheme = next();
    else if (arg == "--cuts") cuts = flags.parse_uint(arg, next(), 1);
    else if (arg == "--seed") seed = flags.parse_uint(arg, next());
    else if (arg == "--jobs")
      jobs = static_cast<unsigned>(flags.parse_uint(arg, next(), 0, 256));
    else if (arg == "--program-fail-prob") {
      fc.program_fail_prob = flags.parse_real(arg, next(), 0.0, 1.0);
      with_faults = true;
    } else if (arg == "--erase-fail-prob") {
      fc.erase_fail_prob = flags.parse_real(arg, next(), 0.0, 1.0);
      with_faults = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  const std::vector<std::string> schemes = schemes_named(flags, scheme);

  const FtlConfig probe = lab_config();
  // Logical pages are derivable without building an FTL: total * (1 - OP).
  const auto logical = static_cast<std::uint64_t>(
      static_cast<double>(probe.geom.total_pages()) * (1.0 - probe.op_ratio));
  const std::uint64_t total_writes = logical * 3;
  // One cell per (scheme, cut) is allocated up front, so the count is
  // bounded by the writes a cut can land in.
  if (cuts > total_writes)
    flags.bad_value("--cuts", std::to_string(cuts),
                    "expected an integer in [1, " +
                        std::to_string(total_writes) +
                        "] (the lab's write count)");

  // Pre-draw every cell (the cut RNG is consumed in the same serial order
  // regardless of --jobs), then run the cells as one grid and print the
  // buffered reports in (scheme, cut) order.
  struct Cell {
    std::string scheme;
    std::uint64_t cut;
    std::uint64_t workload_seed;
  };
  Xoshiro256 cut_rng(seed);
  std::vector<Cell> cells;
  for (const std::string& s : schemes)
    for (std::uint64_t i = 0; i < cuts; ++i)
      cells.push_back(
          {s, 1 + cut_rng.next_below(total_writes), seed ^ (i + 1)});

  const std::vector<CutOutcome> runs = util::run_grid(
      jobs, cells.size(), [&](std::size_t i) {
        return run_one_cut(cells[i].scheme, cells[i].cut,
                           cells[i].workload_seed, fc, with_faults);
      });

  bool all_ok = true;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i % cuts == 0)
      std::printf("%s: %llu random cuts over %llu writes\n",
                  cells[i].scheme.c_str(),
                  static_cast<unsigned long long>(cuts),
                  static_cast<unsigned long long>(total_writes));
    std::fputs(runs[i].report.c_str(), stdout);
    all_ok &= runs[i].ok;
  }
  std::printf(all_ok ? "\nall cuts recovered: acknowledged data intact, "
                       "trimmed pages stayed unmapped\n"
                     : "\nFAILURES detected\n");
  return all_ok ? 0 : 1;
}

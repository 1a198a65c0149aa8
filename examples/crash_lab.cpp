// Crash lab: randomized power-cut replay harness (docs/RECOVERY.md).
//
// For each scheme, the lab runs a seeded hot/cold workload against a small
// drive, cuts power at a random acknowledged-write index, remounts via
// FtlBase::recover(), and verifies the recovery contract:
//   * every page acknowledged (written and not trimmed) before the cut reads
//     back its exact pre-crash payload,
//   * every trimmed-and-not-rewritten page stays unmapped after the remount
//     (the trim journal's durability guarantee — RECOVERY.md "Trim
//     semantics"),
//   * per-superblock valid counts match the validity bitmaps,
//   * the drive keeps serving writes after the remount (and a second
//     verification passes at end of run).
//
// Optional NAND fault injection stresses the degradation paths at the same
// time: program failures force block retirements, erase failures shrink the
// drive, and recovery must still hold. Under heavy fault rates the capacity
// watermark may sink below the mapped count; the lab issues writes through
// try_write_page() and treats kEnospc as a clean skip (the page is simply
// not acknowledged), never as a failure.
//
// Every (scheme, cut) cell is an independent drive + workload, so `--jobs N`
// runs them concurrently: all cut indices are pre-drawn from the seed RNG in
// the serial order, each cell buffers its report, and reports print in
// (scheme, cut) order — output is identical under any job count.
//
// Usage:
//   crash_lab [--scheme Base|2R|SepBIT|PHFTL|all] [--cuts N] [--seed S]
//             [--jobs N] [--program-fail-prob p] [--erase-fail-prob p]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/base_ftl.hpp"
#include "baselines/sepbit.hpp"
#include "baselines/two_r.hpp"
#include "core/phftl.hpp"
#include "flash/fault_injector.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

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

std::unique_ptr<FtlBase> make_ftl(const std::string& scheme,
                                  const FtlConfig& cfg) {
  if (scheme == "Base") return std::make_unique<BaseFtl>(cfg);
  if (scheme == "2R") return std::make_unique<TwoRFtl>(cfg);
  if (scheme == "SepBIT") return std::make_unique<SepBitFtl>(cfg);
  if (scheme == "PHFTL") {
    core::PhftlConfig pc = core::default_phftl_config(cfg, /*seed=*/99);
    // Lighten the trainer: the lab replays each workload up to the cut
    // many times; classification quality is not under test here.
    pc.trainer.max_window_samples = 512;
    pc.trainer.train_per_class = 64;
    return std::make_unique<core::PhftlFtl>(pc);
  }
  return nullptr;
}

constexpr std::uint64_t kPayloadMagic = 0x5bd1e995ULL;  // FtlBase's payload

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

/// Verify every trimmed-and-not-rewritten page is still unmapped. Returns
/// the number of resurrected pages (0 = the trim journal held).
std::uint64_t verify_trimmed(FtlBase& ftl,
                             const std::vector<std::uint8_t>& trimmed,
                             std::ostringstream& out) {
  std::uint64_t bad = 0;
  for (Lpn lpn = 0; lpn < ftl.logical_pages(); ++lpn) {
    if (!trimmed[lpn] || !ftl.is_mapped(lpn)) continue;
    if (++bad <= 5)
      out << "  RESURRECTED trimmed lpn " << lpn << "\n";
  }
  return bad;
}

/// Verify every acknowledged page reads back its payload. Returns the
/// number of violations (0 = contract holds).
std::uint64_t verify(FtlBase& ftl, const std::vector<std::uint8_t>& acked,
                     std::ostringstream& out) {
  std::uint64_t bad = 0;
  for (Lpn lpn = 0; lpn < ftl.logical_pages(); ++lpn) {
    if (!acked[lpn]) continue;
    if (!ftl.is_mapped(lpn) || ftl.read_page(lpn) != (lpn ^ kPayloadMagic)) {
      if (++bad <= 5)
        out << "  LOST lpn " << lpn
            << " (mapped=" << static_cast<int>(ftl.is_mapped(lpn)) << ")\n";
    }
  }
  return bad;
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
  std::unique_ptr<FtlBase> ftl = make_ftl(scheme, cfg);

  const std::uint64_t total_writes = ftl->logical_pages() * 3;
  const std::vector<WorkloadOp> ops =
      make_workload(ftl->logical_pages(), total_writes, workload_seed);

  // acked[lpn]: the host got a completion for a write and no later trim.
  // trimmed[lpn]: the host trimmed a mapped page and never rewrote it.
  std::vector<std::uint8_t> acked(ftl->logical_pages(), 0);
  std::vector<std::uint8_t> trimmed(ftl->logical_pages(), 0);
  WriteContext ctx;
  std::uint64_t writes_done = 0;
  std::uint64_t enospc = 0;
  std::size_t resume_at = ops.size();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const WorkloadOp& op = ops[i];
    switch (op.kind) {
      case WorkloadOp::kWrite:
        if (ftl->try_write_page(op.lpn, ctx) == WriteResult::kOk) {
          acked[op.lpn] = 1;
          trimmed[op.lpn] = 0;
        } else {
          ++enospc;  // clean rejection at the watermark: page stays unacked
        }
        ++writes_done;
        break;
      case WorkloadOp::kRead:
        ftl->read_page(op.lpn);
        break;
      case WorkloadOp::kTrim:
        if (ftl->trim_page(op.lpn)) trimmed[op.lpn] = 1;
        acked[op.lpn] = 0;
        break;
    }
    if (writes_done >= cut) {  // power cut: RAM state vanishes here
      resume_at = i + 1;
      break;
    }
  }

  const RecoveryReport rep = ftl->recover();
  std::uint64_t lost = verify(*ftl, acked, out);
  if (lost > 0) {
    std::snprintf(buf, sizeof(buf),
                  "%s: cut at %llu: %llu acknowledged pages lost after "
                  "recovery\n",
                  scheme.c_str(), static_cast<unsigned long long>(cut),
                  static_cast<unsigned long long>(lost));
    out << buf;
    return {false, out.str()};
  }
  std::uint64_t resurrected = verify_trimmed(*ftl, trimmed, out);
  if (resurrected > 0) {
    std::snprintf(buf, sizeof(buf),
                  "%s: cut at %llu: %llu trimmed pages resurrected after "
                  "recovery\n",
                  scheme.c_str(), static_cast<unsigned long long>(cut),
                  static_cast<unsigned long long>(resurrected));
    out << buf;
    return {false, out.str()};
  }

  // The drive must keep working: replay the rest of the workload, verify
  // again at the end.
  for (std::size_t i = resume_at; i < ops.size(); ++i) {
    const WorkloadOp& op = ops[i];
    switch (op.kind) {
      case WorkloadOp::kWrite:
        if (ftl->try_write_page(op.lpn, ctx) == WriteResult::kOk) {
          acked[op.lpn] = 1;
          trimmed[op.lpn] = 0;
        } else {
          ++enospc;
        }
        break;
      case WorkloadOp::kRead:
        ftl->read_page(op.lpn);
        break;
      case WorkloadOp::kTrim:
        if (ftl->trim_page(op.lpn)) trimmed[op.lpn] = 1;
        acked[op.lpn] = 0;
        break;
    }
  }
  lost = verify(*ftl, acked, out);
  if (lost > 0) {
    std::snprintf(buf, sizeof(buf),
                  "%s: cut at %llu: %llu pages lost after resume\n",
                  scheme.c_str(), static_cast<unsigned long long>(cut),
                  static_cast<unsigned long long>(lost));
    out << buf;
    return {false, out.str()};
  }
  resurrected = verify_trimmed(*ftl, trimmed, out);
  if (resurrected > 0) {
    std::snprintf(buf, sizeof(buf),
                  "%s: cut at %llu: %llu trimmed pages resurrected after "
                  "resume\n",
                  scheme.c_str(), static_cast<unsigned long long>(cut),
                  static_cast<unsigned long long>(resurrected));
    out << buf;
    return {false, out.str()};
  }

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
  long cli_jobs = -1;
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
      cli_jobs = static_cast<long>(flags.parse_uint(arg, next(), 0, 256));
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

  std::vector<std::string> schemes;
  if (scheme == "all") schemes = {"Base", "2R", "SepBIT", "PHFTL"};
  else schemes = {scheme};

  const FtlConfig probe = lab_config();
  // Logical pages are derivable without building an FTL: total * (1 - OP).
  const auto logical = static_cast<std::uint64_t>(
      static_cast<double>(probe.geom.total_pages()) * (1.0 - probe.op_ratio));
  const std::uint64_t total_writes = logical * 3;

  // Pre-draw every cell (the cut RNG is consumed in the same serial order
  // regardless of --jobs), then run the cells on the pool and print the
  // buffered reports in (scheme, cut) order.
  struct Cell {
    std::string scheme;
    std::uint64_t cut;
    std::uint64_t workload_seed;
  };
  Xoshiro256 cut_rng(seed);
  std::vector<Cell> cells;
  for (const std::string& s : schemes) {
    if (!make_ftl(s, probe)) {
      std::fprintf(stderr, "unknown scheme %s\n", s.c_str());
      return 2;
    }
    for (std::uint64_t i = 0; i < cuts; ++i)
      cells.push_back(
          {s, 1 + cut_rng.next_below(total_writes), seed ^ (i + 1)});
  }

  util::ThreadPool pool(util::resolve_jobs(cli_jobs));
  std::vector<std::future<CutOutcome>> runs;
  runs.reserve(cells.size());
  for (const Cell& cell : cells)
    runs.push_back(pool.submit([&cell, &fc, with_faults] {
      return run_one_cut(cell.scheme, cell.cut, cell.workload_seed, fc,
                         with_faults);
    }));

  bool all_ok = true;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i % cuts == 0)
      std::printf("%s: %llu random cuts over %llu writes\n",
                  cells[i].scheme.c_str(),
                  static_cast<unsigned long long>(cuts),
                  static_cast<unsigned long long>(total_writes));
    const CutOutcome outcome = runs[i].get();
    std::fputs(outcome.report.c_str(), stdout);
    all_ok &= outcome.ok;
  }
  std::printf(all_ok ? "\nall cuts recovered: acknowledged data intact, "
                       "trimmed pages stayed unmapped\n"
                     : "\nFAILURES detected\n");
  return all_ok ? 0 : 1;
}

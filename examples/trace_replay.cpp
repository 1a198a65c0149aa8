// Trace replay tool: run any scheme over a suite trace or a CSV trace file
// and report the full statistics panel.
//
// Usage:
//   trace_replay [--scheme Base|2R|SepBIT|PHFTL|all] [--jobs N]
//                [--trace <id>|--csv <file> --pages <logical_pages>]
//                [--drive-writes N] [--export <file>]
//                [--metrics-out <json>] [--metrics-csv <csv>]
//                [--trace-out <chrome.json>] [--snapshot-every <pages>]
//                [--power-cut-at <host write #>] [--recover]
//                [--program-fail-prob <p>] [--erase-fail-prob <p>]
//                [--fault-seed <n>] [--trim-fraction <f>]
//                [--gc-step-pages <N>]
//                [--mapping-tier] [--cmt-pages <N>] [--tp-entries <N>]
//                [--learned-index] [--learned-error <N>]
//
// Examples:
//   trace_replay --scheme PHFTL --trace "#144" --drive-writes 4
//   trace_replay --scheme all --trace "#144" --jobs 4
//     (all four schemes, one replay per job, on --jobs threads: 0 or absent
//     means one per usable CPU; reports print in canonical scheme order and
//     are identical to four serial runs)
//   trace_replay --scheme SepBIT --csv mytrace.csv --pages 45711
//   trace_replay --trace "#52" --export out.csv   # export the synthetic trace
//   trace_replay --metrics-out run.json --trace-out trace.json
//     (open trace.json in chrome://tracing or https://ui.perfetto.dev)
//   trace_replay --power-cut-at 100000 --recover   # crash mid-trace, remount,
//     replay the rest (docs/RECOVERY.md); without --recover the run stops at
//     the cut. The cut lands mid-request when the index falls inside one.
//   trace_replay --program-fail-prob 1e-4 --erase-fail-prob 1e-3
//     (deterministic NAND fault injection; see docs/RECOVERY.md)
//   trace_replay --trim-fraction 0.1 --power-cut-at 100000 --recover
//     (override the suite trace's TRIM request fraction; exercises the trim
//     journal across the cut)
//   trace_replay --scheme all --gc-step-pages 8
//     (time-sliced GC: each host write advances the in-flight victim by at
//     most N relocations instead of paying for a whole round; the default,
//     0, is stop-the-world — docs/QOS.md)
//   trace_replay --scheme Base --mapping-tier --cmt-pages 16
//     (demand-paged flash-resident L2P: translation pages on flash behind a
//     16-page cached mapping table — docs/MAPPING.md; the report grows a
//     mapping panel with RAM footprint and read amplification)
//   trace_replay --scheme Base --mapping-tier --cmt-pages 4 --learned-index
//     (piecewise-linear learned index over the flash-resident tier: a CMT
//     miss becomes at most one OOB-verified probe instead of a translation
//     page read — docs/MAPPING.md "Learned index")
//
// Writes are submitted through submit_checked(): if the drive's capacity
// watermark rejects part of a request (ENOSPC, docs/RECOVERY.md "Capacity
// watermark"), the replay counts it and moves on rather than aborting.
//
// Bad input never aborts: an unknown suite id, an unreadable or malformed
// CSV, or a numeric flag whose whole token is not a number in the flag's
// range exits with status 2 and one line naming the flag and the value.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/schemes.hpp"
#include "flash/fault_injector.hpp"
#include "obs/observability.hpp"
#include "trace/alibaba_suite.hpp"
#include "trace/csv.hpp"
#include "util/cli.hpp"
#include "util/team.hpp"

using namespace phftl;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: trace_replay [--scheme Base|2R|SepBIT|PHFTL|all] "
               "[--jobs N]\n"
               "                    [--trace <suite id> | --csv <file> "
               "--pages <n>]\n"
               "                    [--drive-writes <x>] [--export <file>]\n"
               "                    [--metrics-out <json>] [--metrics-csv "
               "<csv>]\n"
               "                    [--trace-out <chrome json>] "
               "[--snapshot-every <pages>]\n"
               "                    [--power-cut-at <host write #>] "
               "[--recover]\n"
               "                    [--program-fail-prob <p>] "
               "[--erase-fail-prob <p>] [--fault-seed <n>]\n"
               "                    [--trim-fraction <f>]\n"
               "                    [--gc-step-pages <N>] "
               "(0 = stop-the-world)\n"
               "                    [--max-pe-cycles <N>] [--wear-level "
               "<threshold>]\n"
               "                    [--mapping-tier] [--cmt-pages <N>] "
               "[--tp-entries <N>]\n"
               "                    [--learned-index] [--learned-error <N>]\n"
               "  (--scheme all replays every scheme; file outputs require a "
               "single scheme)\n");
  std::exit(2);
}

constexpr std::uint64_t kNoCut = ~0ULL;

/// --pages range. The CSV drive is sized from it (7 % OP, 128-page
/// superblocks). Below ~3.3k pages the over-provisioning cannot hold the GC
/// reserve, and the FTL constructor aborts; the floor leaves a margin. The
/// ceiling (a 256 GiB drive) bounds the host RAM the simulator spends per
/// logical page.
constexpr std::uint64_t kMinCsvPages = 4096;
constexpr std::uint64_t kMaxCsvPages = 1ULL << 24;

struct ReplayOptions {
  std::string metrics_json_path;
  std::string metrics_csv_path;
  std::string trace_out_path;
  std::uint64_t snapshot_every = 0;
  std::uint64_t power_cut_at = kNoCut;
  bool do_recover = false;
  FaultInjector::Config fault_cfg;
  bool with_faults = false;
};

struct ReplayOutcome {
  std::string report;
  bool ok = true;
};

bool write_or_complain(std::ostringstream& out, const std::string& path,
                       const std::string& content, const char* what) {
  if (!obs::write_text_file(path, content)) {
    std::fprintf(stderr, "cannot write %s to %s\n", what, path.c_str());
    return false;
  }
  out << "wrote " << what << " to " << path << "\n";
  return true;
}

/// One complete replay: own FTL, own fault injector, own observability.
/// Buffers its report so `--scheme all` can run replays concurrently and
/// still print in canonical order.
ReplayOutcome run_replay(const std::string& scheme, const Trace& trace,
                         FtlConfig cfg, const ReplayOptions& opt) {
  std::ostringstream out;
  char buf[512];

  // The injector must outlive the FTL (FtlConfig holds a raw pointer); each
  // replay owns one so parallel replays draw from independent fault streams.
  FaultInjector injector(opt.fault_cfg);
  if (opt.with_faults) cfg.fault_injector = &injector;

  // `scheme` is one of kSchemeNames (main validates it before any replay).
  auto ftl = make_scheme(scheme, core::default_phftl_config(cfg));

  if (!opt.trace_out_path.empty())
    ftl->observability().trace().enable(/*capacity=*/65536);
  if (opt.snapshot_every > 0)
    ftl->observability().set_snapshot_cadence(opt.snapshot_every);

  std::snprintf(buf, sizeof(buf),
                "replaying %s (%zu requests, %llu write pages) on %s...\n",
                trace.name.c_str(), trace.ops.size(),
                static_cast<unsigned long long>(trace.total_write_pages()),
                ftl->name().c_str());
  out << buf;
  std::uint64_t written = 0;
  std::uint64_t enospc_requests = 0;
  bool cut_done = false;
  for (const auto& req : trace.ops) {
    if (!cut_done && opt.power_cut_at != kNoCut && req.op == OpType::kWrite &&
        written + req.num_pages > opt.power_cut_at) {
      // The cut lands inside this request: the pages before the cut are
      // acknowledged, the rest never reach flash (a torn request).
      const auto keep = static_cast<std::uint32_t>(opt.power_cut_at - written);
      if (keep > 0) {
        HostRequest pre = req;
        pre.num_pages = keep;
        const SubmitResult r = ftl->submit_checked(pre);
        if (r.status == WriteResult::kEnospc) ++enospc_requests;
        written += r.pages_completed;
      }
      cut_done = true;
      std::snprintf(buf, sizeof(buf),
                    "\npower cut after %llu acknowledged host writes\n",
                    static_cast<unsigned long long>(written));
      out << buf;
      if (!opt.do_recover) break;  // inspect the dead drive's statistics
      const RecoveryReport rep = ftl->recover();
      std::snprintf(
          buf, sizeof(buf),
          "recovered: %llu OOB scans, %llu mapped LPNs, %llu trim records "
          "replayed (%llu tombstoned), %llu open superblocks closed, "
          "vclock %llu, %.3f ms\n\n",
          static_cast<unsigned long long>(rep.oob_scans),
          static_cast<unsigned long long>(rep.mapped_lpns),
          static_cast<unsigned long long>(rep.trim_records_replayed),
          static_cast<unsigned long long>(rep.trim_tombstones),
          static_cast<unsigned long long>(rep.open_sbs_closed),
          static_cast<unsigned long long>(rep.recovered_vclock),
          static_cast<double>(rep.rebuild_ns) * 1e-6);
      out << buf;
      if (keep < req.num_pages) {  // the host retries the torn remainder
        HostRequest post = req;
        post.start_lpn += keep;
        post.num_pages -= keep;
        const SubmitResult r = ftl->submit_checked(post);
        if (r.status == WriteResult::kEnospc) ++enospc_requests;
        written += r.pages_completed;
      }
      continue;
    }
    const SubmitResult r = ftl->submit_checked(req);
    if (r.status == WriteResult::kEnospc) ++enospc_requests;
    if (req.op == OpType::kWrite) written += r.pages_completed;
  }
  ftl->drain();  // finish a parked GC round, flush CMT write-back

  const FtlStats& s = ftl->stats();
  std::snprintf(
      buf, sizeof(buf),
      "\nresults:\n"
      "  write amplification   %.1f%%  ((F-U)/U)\n"
      "  user writes           %llu pages\n"
      "  GC copies             %llu pages\n"
      "  meta-page writes      %llu\n"
      "  erases                %llu (max wear %llu)\n"
      "  GC invocations        %llu (%llu steps, %llu preemptions)\n"
      "  host reads            %llu\n"
      "  effective trims       %llu pages\n"
      "  trim journal          %llu page writes, %llu compactions\n",
      s.write_amplification() * 100.0,
      static_cast<unsigned long long>(s.user_writes),
      static_cast<unsigned long long>(s.gc_writes),
      static_cast<unsigned long long>(s.meta_writes),
      static_cast<unsigned long long>(s.erases),
      static_cast<unsigned long long>(ftl->flash().max_erase_count()),
      static_cast<unsigned long long>(s.gc_invocations),
      static_cast<unsigned long long>(s.gc_steps),
      static_cast<unsigned long long>(s.gc_preemptions),
      static_cast<unsigned long long>(s.host_reads),
      static_cast<unsigned long long>(s.trims),
      static_cast<unsigned long long>(s.journal_writes),
      static_cast<unsigned long long>(s.trim_journal_compactions));
  out << buf;
  if (enospc_requests > 0 || s.enospc_rejections > 0) {
    std::snprintf(
        buf, sizeof(buf),
        "  ENOSPC rejections     %llu requests truncated (%llu page "
        "rejections)\n",
        static_cast<unsigned long long>(enospc_requests),
        static_cast<unsigned long long>(s.enospc_rejections));
    out << buf;
  }
  if (opt.with_faults || s.program_failures > 0 || s.erase_failures > 0) {
    std::snprintf(
        buf, sizeof(buf),
        "  program failures      %llu (pages consumed, data retried)\n"
        "  erase failures        %llu\n"
        "  blocks retired        %llu\n"
        "  bad superblocks       %llu of %llu\n",
        static_cast<unsigned long long>(s.program_failures),
        static_cast<unsigned long long>(s.erase_failures),
        static_cast<unsigned long long>(s.blocks_retired),
        static_cast<unsigned long long>(ftl->flash().bad_block_count()),
        static_cast<unsigned long long>(cfg.geom.num_superblocks()));
    out << buf;
  }
  if (cfg.max_pe_cycles > 0 || cfg.wear_level_threshold > 0) {
    std::snprintf(
        buf, sizeof(buf),
        "  wear spread           %.2f (max - mean erase count)\n"
        "  WL rounds             %llu (%llu pages migrated)\n"
        "  wear-retired blocks   %llu (P/E budget %llu)\n",
        ftl->wear_spread(), static_cast<unsigned long long>(s.wl_rounds),
        static_cast<unsigned long long>(s.wl_migrations),
        static_cast<unsigned long long>(s.wear_retired),
        static_cast<unsigned long long>(cfg.max_pe_cycles));
    out << buf;
  }

  if (const MappingTier* tier = ftl->mapping_tier()) {
    const std::uint64_t flat_bytes = ftl->logical_pages() * 8;
    const std::uint64_t tier_bytes = ftl->mapping_ram_bytes();
    std::snprintf(
        buf, sizeof(buf),
        "\nmapping tier (docs/MAPPING.md):\n"
        "  translation pages     %llu (%llu L2P entries each)\n"
        "  translation writes    %llu (%llu by GC; inside F, so WA above "
        "already pays them)\n"
        "  translation reads     %llu (%llu on the host read path)\n"
        "  CMT                   %llu resident, %.2f%% hit rate\n"
        "  read amplification    %.3f ((host + demand fetches + wasted "
        "probes) / host)\n"
        "  mapping RAM           %llu B vs %llu B flat (%.1fx smaller)\n",
        static_cast<unsigned long long>(tier->num_translation_pages()),
        static_cast<unsigned long long>(tier->tp_entries()),
        static_cast<unsigned long long>(s.trans_writes),
        static_cast<unsigned long long>(s.trans_gc_writes),
        static_cast<unsigned long long>(s.trans_reads),
        static_cast<unsigned long long>(s.trans_reads_host),
        static_cast<unsigned long long>(tier->cmt_resident()),
        s.cmt_hit_rate() * 100.0, s.host_read_amplification(),
        static_cast<unsigned long long>(tier_bytes),
        static_cast<unsigned long long>(flat_bytes),
        tier_bytes == 0 ? 0.0
                        : static_cast<double>(flat_bytes) /
                              static_cast<double>(tier_bytes));
    out << buf;
    if (ftl->config().learned_index) {
      const std::uint64_t consulted = s.learned_hits + s.learned_mispredicts;
      std::snprintf(
          buf, sizeof(buf),
          "  learned index         %llu segments, %llu B "
          "(error bound %u)\n"
          "  learned hits          %llu (%.2f%% of CMT-miss lookups served "
          "probe-verified)\n"
          "  learned mispredicts   %llu (%llu wasted probe reads, %llu on "
          "the host path)\n",
          static_cast<unsigned long long>(tier->learned_segments()),
          static_cast<unsigned long long>(tier->learned_index_bytes()),
          ftl->config().learned_error_bound,
          static_cast<unsigned long long>(s.learned_hits),
          consulted == 0 ? 0.0
                         : 100.0 * static_cast<double>(s.learned_hits) /
                               static_cast<double>(consulted),
          static_cast<unsigned long long>(s.learned_mispredicts),
          static_cast<unsigned long long>(s.learned_probe_reads),
          static_cast<unsigned long long>(s.learned_probe_reads_host));
      out << buf;
    }
  }

  if (auto* phftl = dynamic_cast<core::PhftlFtl*>(ftl.get())) {
    phftl->finalize_evaluation();
    const auto& cm = phftl->classifier_metrics();
    std::snprintf(
        buf, sizeof(buf),
        "\nPHFTL specifics:\n"
        "  classifier            acc %.3f  P %.3f  R %.3f  F1 %.3f\n"
        "  adaptive threshold    %lld pages\n"
        "  training windows      %llu\n"
        "  metadata cache        %.2f%% hit rate, %llu flash meta reads\n",
        cm.accuracy(), cm.precision(), cm.recall(), cm.f1(),
        static_cast<long long>(phftl->threshold()),
        static_cast<unsigned long long>(phftl->trainer().windows_completed()),
        phftl->meta_store().cache_hit_rate() * 100.0,
        static_cast<unsigned long long>(s.meta_reads));
    out << buf;
  }

  // --- observability export (docs/METRICS.md) ---
  ReplayOutcome outcome;
  if (!opt.metrics_json_path.empty() || !opt.metrics_csv_path.empty() ||
      !opt.trace_out_path.empty()) {
    if (!opt.metrics_json_path.empty())
      outcome.ok &= write_or_complain(out, opt.metrics_json_path,
                                      obs::metrics_to_json(ftl->observability()),
                                      "metrics JSON");
    if (!opt.metrics_csv_path.empty())
      outcome.ok &= write_or_complain(out, opt.metrics_csv_path,
                                      obs::metrics_to_csv(ftl->observability()),
                                      "metrics CSV");
    if (!opt.trace_out_path.empty())
      outcome.ok &= write_or_complain(
          out, opt.trace_out_path,
          obs::trace_to_chrome_json(ftl->observability().trace()),
          "chrome trace");
  }
  outcome.report = out.str();
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const util::FlagParser flags("trace_replay");
  std::string scheme = "PHFTL";
  std::string trace_id = "#52";
  std::string csv_path;
  std::string export_path;
  std::uint64_t csv_pages = 0;
  double drive_writes = 4.0;
  double trim_fraction = -1.0;  // < 0: keep the suite trace's own fraction
  unsigned jobs = 0;
  std::uint64_t gc_step_pages = 0;  // 0: stop-the-world
  std::uint64_t max_pe_cycles = 0;          // 0: unlimited P/E budget
  std::uint64_t wear_level_threshold = 0;   // 0: wear leveling off
  bool mapping_tier = false;
  std::uint64_t cmt_pages = 0;   // 0: keep the FtlConfig default
  std::uint64_t tp_entries = 0;  // 0: physical maximum (page_size / 8)
  bool learned_index = false;
  std::uint64_t learned_error = 0;  // 0: keep the FtlConfig default
  ReplayOptions opt;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--scheme") scheme = next();
    else if (arg == "--jobs")
      jobs = static_cast<unsigned>(flags.parse_uint(arg, next(), 0, 256));
    else if (arg == "--trace") trace_id = next();
    else if (arg == "--csv") csv_path = next();
    else if (arg == "--pages")
      csv_pages = flags.parse_uint(arg, next(), kMinCsvPages, kMaxCsvPages);
    else if (arg == "--drive-writes")
      drive_writes = flags.parse_real(arg, next(), 0.01, 1000.0);
    else if (arg == "--export") export_path = next();
    else if (arg == "--metrics-out") opt.metrics_json_path = next();
    else if (arg == "--metrics-csv") opt.metrics_csv_path = next();
    else if (arg == "--trace-out") opt.trace_out_path = next();
    else if (arg == "--snapshot-every")
      opt.snapshot_every = flags.parse_uint(arg, next());
    else if (arg == "--power-cut-at")
      opt.power_cut_at = flags.parse_uint(arg, next());
    else if (arg == "--recover") opt.do_recover = true;
    else if (arg == "--program-fail-prob") {
      opt.fault_cfg.program_fail_prob = flags.parse_real(arg, next(), 0.0, 1.0);
      opt.with_faults = true;
    } else if (arg == "--erase-fail-prob") {
      opt.fault_cfg.erase_fail_prob = flags.parse_real(arg, next(), 0.0, 1.0);
      opt.with_faults = true;
    } else if (arg == "--fault-seed") {
      opt.fault_cfg.seed = flags.parse_uint(arg, next());
    } else if (arg == "--trim-fraction") {
      trim_fraction = flags.parse_real(arg, next(), 0.0, 1.0);
    } else if (arg == "--gc-step-pages") {
      gc_step_pages = flags.parse_uint(arg, next());
    } else if (arg == "--max-pe-cycles") {
      max_pe_cycles = flags.parse_uint(arg, next());
    } else if (arg == "--wear-level") {
      wear_level_threshold = flags.parse_uint(arg, next());
    } else if (arg == "--mapping-tier") {
      mapping_tier = true;
    } else if (arg == "--cmt-pages") {
      cmt_pages = flags.parse_uint(arg, next(), 1);
    } else if (arg == "--tp-entries") {
      tp_entries = flags.parse_uint(arg, next());
    } else if (arg == "--learned-index") {
      learned_index = true;
    } else if (arg == "--learned-error") {
      learned_error = flags.parse_uint(arg, next(), 1, 250);
    } else usage();
  }
  const std::vector<std::string> schemes = schemes_named(flags, scheme);
  if (learned_index && !mapping_tier) {
    std::fprintf(stderr, "trace_replay: --learned-index requires "
                         "--mapping-tier\n");
    return 2;
  }

  // --- build trace + drive config ---
  Trace trace;
  FtlConfig cfg;
  if (!csv_path.empty()) {
    if (csv_pages == 0) {
      std::fprintf(stderr, "trace_replay: --csv requires --pages <n>\n");
      return 2;
    }
    try {
      trace = read_trace_csv_file(csv_path, csv_pages);
    } catch (const std::runtime_error& e) {
      flags.bad_value("--csv", csv_path, e.what());
    }
    // Size the drive so the logical space covers the trace at 7% OP.
    cfg.geom.num_dies = 8;
    cfg.geom.pages_per_block = 16;
    cfg.geom.page_size = 16 * 1024;
    cfg.geom.blocks_per_die = static_cast<std::uint32_t>(
        (static_cast<double>(csv_pages) / 0.93 / 128.0) + 1.0);
  } else {
    SuiteTraceSpec spec;
    try {
      spec = suite_spec(trace_id);
    } catch (const std::runtime_error&) {
      std::string ids;
      for (const SuiteTraceSpec& s : alibaba_suite())
        ids += (ids.empty() ? "" : " ") + s.id;
      flags.bad_value("--trace", trace_id, "expected a suite id: " + ids);
    }
    if (trim_fraction >= 0.0) spec.params.trim_request_fraction = trim_fraction;
    cfg = suite_ftl_config(spec);
    trace = make_suite_trace(spec, drive_writes);
  }
  // Geometry-dependent ranges: a translation page holds at most
  // page_size / 8 entries, and a CMT larger than the drive's translation
  // page count only allocates RAM it can never fill.
  const std::uint64_t max_tp_entries = cfg.geom.page_size / 8;
  if (tp_entries > max_tp_entries)
    flags.bad_value("--tp-entries", std::to_string(tp_entries),
                    "expected an integer in [0, " +
                        std::to_string(max_tp_entries) +
                        "] (0 = page_size / 8)");
  const std::uint64_t tp = tp_entries > 0 ? tp_entries : max_tp_entries;
  const std::uint64_t max_cmt_pages = (cfg.geom.total_pages() + tp - 1) / tp;
  if (cmt_pages > max_cmt_pages)
    flags.bad_value("--cmt-pages", std::to_string(cmt_pages),
                    "expected an integer in [1, " +
                        std::to_string(max_cmt_pages) +
                        "] (the drive's translation-page count)");

  cfg.gc_step_pages = gc_step_pages;
  cfg.max_pe_cycles = max_pe_cycles;
  cfg.wear_level_threshold = wear_level_threshold;
  cfg.mapping_tier = mapping_tier;
  if (cmt_pages > 0) cfg.cmt_pages = cmt_pages;
  if (tp_entries > 0) cfg.tp_entries = tp_entries;
  cfg.learned_index = learned_index;
  if (learned_error > 0)
    cfg.learned_error_bound = static_cast<std::uint32_t>(learned_error);

  if (!export_path.empty()) {
    if (!write_trace_csv_file(trace, export_path)) {
      std::fprintf(stderr, "cannot write %s\n", export_path.c_str());
      return 1;
    }
    std::printf("exported %zu requests to %s\n", trace.ops.size(),
                export_path.c_str());
    return 0;
  }

  if (scheme != "all") {
    const ReplayOutcome outcome = run_replay(scheme, trace, cfg, opt);
    std::fputs(outcome.report.c_str(), stdout);
    return outcome.ok ? 0 : 1;
  }

  // --- all schemes, one independent replay each (possibly concurrent) ---
  if (!opt.metrics_json_path.empty() || !opt.metrics_csv_path.empty() ||
      !opt.trace_out_path.empty()) {
    std::fprintf(stderr,
                 "--metrics-out/--metrics-csv/--trace-out write one file "
                 "per run; pick a single --scheme\n");
    return 2;
  }
  const std::vector<ReplayOutcome> runs = util::run_grid(
      jobs, schemes.size(),
      [&](std::size_t i) { return run_replay(schemes[i], trace, cfg, opt); });
  bool ok = true;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i > 0) std::printf("\n================\n\n");
    std::fputs(runs[i].report.c_str(), stdout);
    ok &= runs[i].ok;
  }
  return ok ? 0 : 1;
}

#include "trace/alibaba_suite.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "util/assert.hpp"
#include "util/cli.hpp"

namespace phftl {

namespace {

std::uint32_t superblocks_for(const std::string& size_label) {
  // Scaled drive sizes: one superblock = 8 dies × 16 pages × 16 KB = 2 MiB.
  // Superblock counts are kept high enough that the paper's 5 % GC trigger
  // stays below the 7 % over-provisioning headroom on every size class.
  if (size_label == "500GB") return 384;  // 49152 pages
  if (size_label == "100GB") return 192;  // 24576 pages
  if (size_label == "50GB") return 128;   // 16384 pages
  if (size_label == "40GB") return 96;    // 12288 pages
  PHFTL_CHECK_MSG(false, "unknown size label");
  return 0;
}

SuiteTraceSpec spec(const char* id, const char* size, double theta,
                    double hot_frac, double hot_traffic, double warm_frac,
                    double warm_traffic, double seq, double reads,
                    double noise, double written_space,
                    std::uint64_t phase_pages, std::uint64_t seed,
                    double cyclic) {
  SuiteTraceSpec s;
  s.id = id;
  s.size_label = size;
  s.num_superblocks = superblocks_for(size);
  s.params.name = s.id;
  s.params.zipf_theta = theta;
  s.params.hot_region_fraction = hot_frac;
  s.params.hot_traffic_fraction = hot_traffic;
  s.params.warm_region_fraction = warm_frac;
  s.params.warm_traffic_fraction = warm_traffic;
  s.params.sequential_fraction = seq;
  s.params.read_request_fraction = reads;
  s.params.noise_fraction = noise;
  s.params.written_space_fraction = written_space;
  s.params.phase_length_pages = phase_pages;
  s.params.seed = seed;
  s.params.cyclic_fraction = cyclic;
  return s;
}

std::vector<SuiteTraceSpec> build_suite() {
  // Columns: id, size, zipf theta (within-tier skew), hot fraction/traffic,
  // warm fraction/traffic, seq fraction, read fraction, noise fraction,
  // footprint, phase length, seed, cyclic fraction. The static tier gets
  // the remaining traffic (1 - hot - warm): its share is the dominant WA
  // lever (slow-trickled data keeps being recopied by schemes that mix it
  // with active data).
  //
  // Tier design rules (all scale with drive size):
  //  * hot-tier rewrite interval < the 5%-of-SSD training window, so
  //    lifetime samples capture it (real hot sets are ~1% of the drive);
  //  * warm interval a few multiples of the window — separable via GC;
  //  * static tier sees a trickle (the long tail of the Fig. 2a CDF);
  //  * cyclic_fraction sets how concentrated hot/warm lifetimes are —
  //    lower values blur the modes and cap any classifier's accuracy.
  // High-WA traces (#144) have near-full footprints, blurred tiers and a
  // strong static trickle; low-WA ones (#52) small, clean tiers.
  std::vector<SuiteTraceSpec> suite;
  // --- 500 GB class ---
  suite.push_back(spec("#52", "500GB", 0.20, 0.012, 0.84, 0.012, 0.10,
                       0.15, 0.20, 0.00, 0.72, 0, 52, 0.85));
  suite.push_back(spec("#58", "500GB", 0.45, 0.015, 0.76, 0.020, 0.12,
                       0.00, 0.10, 0.08, 0.80, 0, 58, 0.45));
  suite.push_back(spec("#107", "500GB", 0.20, 0.012, 0.78, 0.012, 0.12,
                       0.10, 0.05, 0.05, 0.72, 120000, 107, 0.80));
  suite.push_back(spec("#141", "500GB", 0.20, 0.012, 0.78, 0.012, 0.12,
                       0.05, 0.15, 0.00, 0.75, 0, 141, 0.80));
  suite.push_back(spec("#144", "500GB", 0.60, 0.020, 0.55, 0.15, 0.20,
                       0.00, 0.05, 0.12, 0.93, 0, 144, 0.30));
  suite.push_back(spec("#178", "500GB", 0.20, 0.012, 0.80, 0.012, 0.10,
                       0.20, 0.10, 0.04, 0.78, 0, 178, 0.80));
  suite.push_back(spec("#225", "500GB", 0.50, 0.015, 0.65, 0.020, 0.17,
                       0.00, 0.10, 0.15, 0.85, 150000, 225, 0.40));
  // --- 100 GB class ---
  suite.push_back(spec("#177", "100GB", 0.20, 0.010, 0.86, 0.010, 0.08,
                       0.00, 0.25, 0.00, 0.68, 0, 177, 0.90));
  suite.push_back(spec("#202", "100GB", 0.20, 0.010, 0.82, 0.010, 0.08,
                       0.50, 0.10, 0.00, 0.74, 0, 202, 0.90));
  suite.push_back(spec("#316", "100GB", 0.20, 0.012, 0.84, 0.012, 0.09,
                       0.30, 0.05, 0.00, 0.78, 0, 316, 0.85));
  suite.push_back(spec("#721", "100GB", 0.20, 0.012, 0.78, 0.012, 0.12,
                       0.10, 0.10, 0.08, 0.78, 0, 721, 0.80));
  suite.push_back(spec("#748", "100GB", 0.40, 0.015, 0.72, 0.016, 0.14,
                       0.00, 0.10, 0.08, 0.80, 60000, 748, 0.70));
  // --- 50 GB class ---
  suite.push_back(spec("#38", "50GB", 0.20, 0.010, 0.50, 0.010, 0.15,
                       0.70, 0.30, 0.85, 0.72, 0, 38, 0.50));
  suite.push_back(spec("#126", "50GB", 0.40, 0.015, 0.72, 0.016, 0.13,
                       0.00, 0.10, 0.20, 0.75, 0, 126, 0.65));
  suite.push_back(spec("#132", "50GB", 0.20, 0.012, 0.78, 0.012, 0.12,
                       0.15, 0.10, 0.05, 0.80, 0, 132, 0.80));
  // --- 40 GB class ---
  suite.push_back(spec("#223", "40GB", 0.20, 0.012, 0.85, 0.012, 0.09,
                       0.00, 0.20, 0.00, 0.72, 0, 223, 0.85));
  suite.push_back(spec("#228", "40GB", 0.20, 0.010, 0.88, 0.010, 0.07,
                       0.20, 0.10, 0.00, 0.70, 0, 228, 0.90));
  suite.push_back(spec("#277", "40GB", 0.20, 0.012, 0.85, 0.012, 0.09,
                       0.00, 0.10, 0.00, 0.75, 0, 277, 0.85));
  suite.push_back(spec("#326", "40GB", 0.20, 0.008, 0.86, 0.008, 0.07,
                       0.60, 0.05, 0.00, 0.70, 0, 326, 0.85));
  suite.push_back(spec("#679", "40GB", 0.20, 0.010, 0.82, 0.010, 0.08,
                       0.50, 0.10, 0.08, 0.72, 0, 679, 0.80));
  return suite;
}

}  // namespace

const std::vector<SuiteTraceSpec>& alibaba_suite() {
  static const std::vector<SuiteTraceSpec> suite = build_suite();
  return suite;
}

const SuiteTraceSpec& suite_spec(const std::string& id) {
  for (const auto& s : alibaba_suite())
    if (s.id == id) return s;
  throw std::runtime_error("unknown suite trace id: " + id);
}

Geometry suite_geometry(const SuiteTraceSpec& spec) {
  Geometry g;
  g.num_dies = 8;
  g.pages_per_block = 16;
  g.page_size = 16 * 1024;
  g.blocks_per_die = spec.num_superblocks;
  return g;
}

FtlConfig suite_ftl_config(const SuiteTraceSpec& spec) {
  FtlConfig cfg;
  cfg.geom = suite_geometry(spec);
  cfg.op_ratio = 0.07;          // paper §V-A
  return cfg;
}

Trace make_suite_trace(const SuiteTraceSpec& spec, double drive_writes) {
  PHFTL_CHECK(drive_writes > 0.0);
  WorkloadParams p = spec.params;
  const Geometry geom = suite_geometry(spec);
  const FtlConfig cfg = suite_ftl_config(spec);
  const auto logical = static_cast<std::uint64_t>(
      static_cast<double>(geom.total_pages()) * (1.0 - cfg.op_ratio));
  p.logical_pages = logical;
  p.total_write_pages = static_cast<std::uint64_t>(
      static_cast<double>(logical) * drive_writes);
  // Size the sequential (log) region so its rewrite cycle matches the hot
  // tier's sweep interval: log files are small and rewritten hot. A single
  // unimodal short-living mode keeps the lifetime CDF knee unambiguous;
  // two separate short modes would wedge the threshold between them.
  if (p.sequential_fraction > 0.0) {
    const double fp_pages =
        static_cast<double>(logical) * p.written_space_fraction;
    const double hot_interval =
        p.hot_region_fraction * fp_pages /
        (p.hot_traffic_fraction * (1.0 - p.sequential_fraction));
    p.seq_region_fraction = std::clamp(
        hot_interval * p.sequential_fraction / fp_pages, 0.002, 0.12);
  }
  return generate_workload(p);
}

double drive_writes_from_env(double fallback) {
  const char* env = std::getenv("PHFTL_DRIVE_WRITES");
  if (!env || !*env) return fallback;
  // The range of trace_replay's --drive-writes.
  return util::FlagParser("environment")
      .parse_real("PHFTL_DRIVE_WRITES", env, 0.01, 1000.0);
}

}  // namespace phftl

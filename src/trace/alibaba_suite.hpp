// The 20-drive evaluation suite (stand-in for the Alibaba Cloud dataset).
//
// The paper evaluates on the 20 drives (out of 1000) that sustained ≥ 20
// drive writes, sized 40–500 GB (§V-A). Those traces are not
// redistributable, so this suite regenerates 20 deterministic synthetic
// workloads carrying the same trace ids and size classes. Per-trace
// parameters are chosen to reproduce each trace's *qualitative role* in the
// paper's results: e.g. #144 is the high-WA trace and #52 the low-WA one
// used in Fig. 7, and #38 is the adversarial trace on which the Page
// Classifier's precision collapses (Table I).
//
// Drive sizes are scaled down (GB → thousands of 16 KB pages) so that a
// full 20-drive-write run of all 20 traces completes on one laptop core —
// and the benches spread independent grid runs across cores with
// `--jobs N` (bench/bench_common.hpp) for a further wall-clock cut.
// What WA experiments depend on — working-set-to-capacity ratio, lifetime
// skew, over-provisioning — is preserved under this scaling.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ftl/ftl_base.hpp"
#include "trace/generator.hpp"

namespace phftl {

struct SuiteTraceSpec {
  std::string id;          ///< paper trace id, e.g. "#52"
  std::string size_label;  ///< paper drive size class, e.g. "500GB"
  std::uint32_t num_superblocks = 24;  ///< scaled drive size
  WorkloadParams params;   ///< logical_pages/total_write_pages filled later
};

/// All 20 traces in the paper's Fig. 5 order.
const std::vector<SuiteTraceSpec>& alibaba_suite();

/// Look up one spec by id (e.g. "#144"); throws if unknown.
const SuiteTraceSpec& suite_spec(const std::string& id);

/// Drive geometry for a spec: 8 dies × 64-page blocks × 16 KB pages,
/// `num_superblocks` blocks per die.
Geometry suite_geometry(const SuiteTraceSpec& spec);

/// FTL configuration the paper uses: 7 % OP, GC at < 5 % free.
FtlConfig suite_ftl_config(const SuiteTraceSpec& spec);

/// Build the trace with `drive_writes` × (logical capacity) total writes.
/// The paper replays 20 drive writes; benchmarks default to a smaller
/// multiple for runtime and honour PHFTL_DRIVE_WRITES.
Trace make_suite_trace(const SuiteTraceSpec& spec, double drive_writes);

/// Reads PHFTL_DRIVE_WRITES from the environment; unset or empty gives
/// `fallback`. Anything but a number in [0.01, 1000] exits 2 with one
/// stderr line naming the variable and the value.
double drive_writes_from_env(double fallback);

}  // namespace phftl

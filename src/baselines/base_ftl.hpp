// Base FTL: no data separation (paper §V-A "Base", FEMU's stock FTL).
//
// All writes — user and GC — share a single open superblock, so pages with
// different lifetimes mix in the same blocks and GC must migrate the
// long-living survivors, producing the high WA the paper reports.
#pragma once

#include <string>

#include "ftl/ftl_base.hpp"
#include "ftl/victim_policy.hpp"

namespace phftl {

enum class VictimPolicy { kGreedy, kCostBenefit };

class BaseFtl : public FtlBase {
 public:
  explicit BaseFtl(const FtlConfig& cfg,
                   VictimPolicy policy = VictimPolicy::kCostBenefit)
      : FtlBase(cfg, StreamLayout{}), policy_(policy) {}

  std::string name() const override { return "Base"; }

 protected:
  std::uint32_t classify_user_write(Lpn, const WriteContext&,
                                    OobData&) override {
    return 0;
  }
  std::uint32_t classify_gc_write(const OobData&) override { return 0; }
  std::uint64_t pick_victim() override {
    // Greedy is an O(1) pop from the victim index; Cost-Benefit's age term
    // is unbounded, so it scans every candidate.
    if (policy_ == VictimPolicy::kGreedy) return greedy_victim();
    return cost_benefit_victim(*this);
  }

 private:
  VictimPolicy policy_;
};

}  // namespace phftl

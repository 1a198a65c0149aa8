// 2R (Kang et al., VLDB 2020): isolate cold pages by separating GC writes
// from user writes.
//
// Heuristic (paper §V-B): a page still valid when its block is collected is
// long-living, so GC-migrated pages go to a second region. Two streams:
// stream 0 = user writes, stream 1 = GC writes. Victim selection follows the
// paper's evaluation setup (Cost-Benefit, since 2R did not specify one).
#pragma once

#include <string>

#include "ftl/ftl_base.hpp"
#include "ftl/victim_policy.hpp"

namespace phftl {

class TwoRFtl : public FtlBase {
 public:
  // Translation pages churn at write-back cadence, not host cadence — keep
  // them out of the user region like GC survivors (docs/MAPPING.md).
  explicit TwoRFtl(const FtlConfig& cfg)
      : FtlBase(cfg, {.num_streams = 2,
                      .translation_writeback = 1,
                      .translation_gc = 1}) {}

  std::string name() const override { return "2R"; }

 protected:
  std::uint32_t classify_user_write(Lpn, const WriteContext&,
                                    OobData&) override {
    return 0;
  }
  std::uint32_t classify_gc_write(const OobData&) override { return 1; }
  std::uint64_t pick_victim() override { return cost_benefit_victim(*this); }
};

}  // namespace phftl

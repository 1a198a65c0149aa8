// The paper's four schemes (§V-A) by name: one list and one factory for
// every bench, example and test.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "baselines/base_ftl.hpp"
#include "baselines/sepbit.hpp"
#include "baselines/two_r.hpp"
#include "core/phftl.hpp"
#include "util/cli.hpp"

namespace phftl {

/// Scheme names in table order.
inline const std::vector<std::string> kSchemeNames = {"Base", "2R", "SepBIT",
                                                      "PHFTL"};

/// Builds the scheme `name`: Base, 2R and SepBIT from `pcfg.ftl` (Base with
/// Cost-Benefit victims), PHFTL from all of `pcfg`. Null for an unknown
/// name.
inline std::unique_ptr<FtlBase> make_scheme(const std::string& name,
                                            const core::PhftlConfig& pcfg) {
  if (name == "Base") return std::make_unique<BaseFtl>(pcfg.ftl);
  if (name == "2R") return std::make_unique<TwoRFtl>(pcfg.ftl);
  if (name == "SepBIT") return std::make_unique<SepBitFtl>(pcfg.ftl);
  if (name == "PHFTL") return std::make_unique<core::PhftlFtl>(pcfg);
  return nullptr;
}

/// The schemes a `--scheme` value names: every scheme for "all", else the
/// one named. Any other value exits 2 through flags.bad_value().
inline std::vector<std::string> schemes_named(const util::FlagParser& flags,
                                              const std::string& value) {
  if (value == "all") return kSchemeNames;
  if (std::find(kSchemeNames.begin(), kSchemeNames.end(), value) ==
      kSchemeNames.end()) {
    std::string names;
    for (const std::string& name : kSchemeNames) names += name + ", ";
    flags.bad_value("--scheme", value, "expected " + names + "or all");
  }
  return {value};
}

}  // namespace phftl

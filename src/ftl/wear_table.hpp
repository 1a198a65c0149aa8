// The FTL's RAM wear table (docs/ENDURANCE.md): the erase count of each
// superblock as the FTL knows it, with a running sum and max over the
// in-service (non-bad) superblocks so the static wear-leveling trigger is
// O(1) per check. FtlBase reports every erase that worked and every block
// that leaves service, so during normal operation the table matches the
// flash array exactly. At mount it is wiped and rebuilt from the OOB
// erase-count stamps the rebuild walk reports: exact for superblocks that
// hold a programmed page, a lower bound (0) for the rest. Which blocks are
// in service is the flash array's state; the calls that need it take it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "flash/flash_array.hpp"
#include "obs/observability.hpp"

namespace phftl {

class WearTable {
 public:
  explicit WearTable(std::uint64_t superblocks) : count_(superblocks, 0) {}
  // The registered gauges hold this table's address.
  WearTable(const WearTable&) = delete;
  WearTable& operator=(const WearTable&) = delete;

  std::uint64_t count(std::uint64_t sb) const { return count_[sb]; }
  /// Mean erase count over the in-service superblocks of `flash`.
  double mean(const FlashArray& flash) const {
    const std::uint64_t total = count_.size();
    const std::uint64_t bad = flash.bad_block_count();
    if (bad >= total) return 0.0;
    return static_cast<double>(sum_) / static_cast<double>(total - bad);
  }
  /// max - mean over in-service superblocks: the leveling trigger quantity.
  double spread(const FlashArray& flash) const {
    const double m = mean(flash);
    const double mx = static_cast<double>(max_);
    return mx > m ? mx - m : 0.0;
  }

  /// An erase of `sb` worked (including the one that spends its last
  /// budgeted P/E cycle).
  void note_erase(std::uint64_t sb) {
    ++count_[sb];
    ++sum_;
    max_ = std::max(max_, count_[sb]);
    hist_->observe(static_cast<double>(count_[sb]));
  }
  /// `sb` left service (retired, erase failure, P/E budget spent): its
  /// wear leaves the in-service pool.
  void note_lost(std::uint64_t sb, const FlashArray& flash) {
    PHFTL_CHECK(sum_ >= count_[sb]);
    sum_ -= count_[sb];
    // The max holder left service; rescan the survivors. Rare (a block is
    // lost at most once), so O(superblocks) is fine.
    if (count_[sb] == max_) recount(flash);
  }

  /// Mount: zero the table. The rebuild walk then reports each programmed
  /// page's stamp — every page programmed since the block's last erase
  /// carries the same one — and recount() re-derives the sum and max.
  void forget() { std::fill(count_.begin(), count_.end(), 0); }
  void note_stamp(std::uint64_t sb, std::uint64_t erase_count) {
    count_[sb] = erase_count;
  }
  void recount(const FlashArray& flash) {
    sum_ = 0;
    max_ = 0;
    for (std::uint64_t sb = 0; sb < count_.size(); ++sb) {
      if (flash.is_bad(sb)) continue;
      sum_ += count_[sb];
      max_ = std::max(max_, count_[sb]);
    }
  }

  /// Register the `flash.erase_count` histogram and the two wear gauges at
  /// FtlBase's two fixed points of the export order.
  void register_histogram(obs::MetricsRegistry& m,
                          std::uint64_t max_pe_cycles) {
    // One observation per erase, at the block's new count. With a P/E
    // budget the buckets are linear up to it (the last bucket is
    // end-of-life); without one, exponential — counts are open-ended.
    std::vector<double> edges;
    if (max_pe_cycles > 0) {
      for (std::uint64_t i = 1; i <= 8; ++i) {
        const double e = static_cast<double>(i * max_pe_cycles) / 8.0;
        if (edges.empty() || e > edges.back()) edges.push_back(e);
      }
    } else {
      for (double e = 1.0; e <= 256.0; e *= 2.0) edges.push_back(e);
    }
    hist_ = &m.histogram("flash.erase_count", std::move(edges), "erases",
                         "per-superblock erase count, observed at each erase");
  }
  void register_gauges(obs::MetricsRegistry& m, const FlashArray& flash) const {
    m.gauge("flash.wear_spread", [this, &flash] { return spread(flash); },
            "erases",
            "max - mean erase count over in-service superblocks (the static "
            "wear-leveling trigger quantity)");
    m.gauge("flash.wear_max", [this] { return max_; }, "erases",
            "highest erase count among in-service superblocks");
  }

 private:
  std::vector<std::uint64_t> count_;
  std::uint64_t sum_ = 0;  ///< over in-service superblocks
  std::uint64_t max_ = 0;  ///< over in-service superblocks
  obs::Histogram* hist_ = nullptr;
};

}  // namespace phftl

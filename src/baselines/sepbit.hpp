// SepBIT (Wang et al., FAST 2022): data separation via block invalidation
// time (BIT) inference.
//
// SepBIT assumes a newly written page's lifetime equals its previous
// lifetime (paper §V-B). It maintains an estimate ℓ of the mean lifetime of
// user-written pages and classifies:
//   * user writes: inferred lifetime v = age of the overwritten version;
//     v < ℓ → class 1 (hot), otherwise (or first write) → class 2;
//   * GC writes: by the migrated page's age u at collection time:
//     u ≤ ℓ → class 3, u ≤ 4ℓ → class 4, u ≤ 16ℓ → class 5, else class 6.
// ℓ is tracked as the windowed mean of lifetimes of class-1 user-written
// pages observed at invalidation, per the original design. Victim selection
// is greedy, as in the SepBIT paper.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "ftl/ftl_base.hpp"
#include "ftl/victim_policy.hpp"

namespace phftl {

class SepBitFtl : public FtlBase {
 public:
  // SepBIT has no lifetime signal for translation pages: write-backs
  // rewrite at cache-eviction cadence (class 3's short-survivor band),
  // GC-migrated ones already survived a collection (class 4).
  explicit SepBitFtl(const FtlConfig& cfg)
      : FtlBase(cfg, {.num_streams = 6,
                      .translation_writeback = 2,
                      .translation_gc = 3}),
        last_user_write_(logical_pages(), kNever),
        was_class1_(logical_pages(), 0) {
    // Bootstrap ℓ at 10% of logical capacity; replaced after the first
    // observation window.
    lifetime_estimate_ = static_cast<double>(logical_pages()) * 0.1;
    observability().metrics().gauge(
        "sepbit.lifetime_estimate_pages", [this] { return lifetime_estimate_; },
        "pages", "windowed mean lifetime of class-1 user pages (SepBIT's l)");
  }

  std::string name() const override { return "SepBIT"; }

  double lifetime_estimate() const { return lifetime_estimate_; }

 protected:
  std::uint32_t classify_user_write(Lpn lpn, const WriteContext& ctx,
                                    OobData&) override {
    std::uint32_t cls = 1;  // class 2 (cold) by default / first write
    if (last_user_write_[lpn] != kNever) {
      const double v = static_cast<double>(ctx.now - last_user_write_[lpn]);
      if (v < lifetime_estimate_) cls = 0;  // class 1 (hot)
    }
    last_user_write_[lpn] = ctx.now;
    was_class1_[lpn] = (cls == 0) ? 1 : 0;
    return cls;
  }

  std::uint32_t classify_gc_write(const OobData& oob) override {
    // Wear-leveled pages ride the same age ladder: a leveling victim's
    // long-closed cold data lands in the oldest classes (5/6).
    const double u =
        static_cast<double>(virtual_clock()) - static_cast<double>(oob.write_time);
    if (u <= lifetime_estimate_) return 2;          // class 3
    if (u <= 4.0 * lifetime_estimate_) return 3;    // class 4
    if (u <= 16.0 * lifetime_estimate_) return 4;   // class 5
    return 5;                                       // class 6
  }

  void on_page_invalidated(Lpn lpn, Ppn /*ppn*/, std::uint64_t now) override {
    // Track mean lifetime of class-1 user-written pages, observed when they
    // are invalidated by a host overwrite (GC-internal invalidations are
    // relocations, not deaths).
    if (in_gc() || !was_class1_[lpn] || last_user_write_[lpn] == kNever)
      return;
    window_sum_ += static_cast<double>(now - last_user_write_[lpn]);
    if (++window_count_ >= kWindow) {
      lifetime_estimate_ = window_sum_ / static_cast<double>(window_count_);
      if (lifetime_estimate_ < 1.0) lifetime_estimate_ = 1.0;
      window_sum_ = 0.0;
      window_count_ = 0;
    }
  }

  std::uint64_t pick_victim() override {
    // Greedy: the victim index pops a fewest-valid closed superblock in
    // O(1) — same score as the historical full-scan argmax.
    return greedy_victim();
  }

  void on_recovery(const RecoveryReport& /*report*/) override {
    // Unclean shutdown (docs/RECOVERY.md): ℓ and the class-1 flags are
    // RAM-only — restart them at bootstrap defaults. Last-write times ARE
    // re-derivable: every valid page's OOB write_time is the timestamp of
    // its last host write (GC copies preserve it), which is exactly what
    // classify_user_write needs to infer v on the next overwrite.
    lifetime_estimate_ = static_cast<double>(logical_pages()) * 0.1;
    window_sum_ = 0.0;
    window_count_ = 0;
    std::fill(was_class1_.begin(), was_class1_.end(), 0);
    std::fill(last_user_write_.begin(), last_user_write_.end(), kNever);
    for (Lpn lpn = 0; lpn < logical_pages(); ++lpn) {
      if (!is_mapped(lpn)) continue;
      last_user_write_[lpn] = flash().read_oob(lookup(lpn)).write_time;
    }
  }

 private:
  static constexpr std::uint64_t kNever = ~0ULL;
  static constexpr std::uint64_t kWindow = 16384;

  std::vector<std::uint64_t> last_user_write_;
  std::vector<std::uint8_t> was_class1_;
  double lifetime_estimate_;
  double window_sum_ = 0.0;
  std::uint64_t window_count_ = 0;
};

}  // namespace phftl

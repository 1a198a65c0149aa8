#include "ftl/host_oracle.hpp"

#include <sstream>

#include "util/log.hpp"

namespace phftl {

namespace {

/// Violation lines: the first few in full, then a count of the rest, so a
/// broken drive yields a readable report rather than one line per page.
class Report {
 public:
  template <typename... Parts>
  void add(const Parts&... parts) {
    if (++lines_ > kMaxLines) return;
    (out_ << ... << parts) << '\n';
  }
  std::string str() {
    if (lines_ > kMaxLines)
      out_ << "... and " << lines_ - kMaxLines << " more\n";
    return out_.str();
  }

 private:
  static constexpr std::uint64_t kMaxLines = 8;
  std::uint64_t lines_ = 0;
  std::ostringstream out_;
};

}  // namespace

WriteResult HostOracle::write(FtlBase& ftl, Lpn lpn, const WriteContext& ctx) {
  const WriteResult res = ftl.try_write_page(lpn, ctx);
  if (res == WriteResult::kOk) expected_[lpn] = 1;
  return res;
}

SubmitResult HostOracle::submit(FtlBase& ftl, const HostRequest& req) {
  const SubmitResult res = ftl.submit_checked(req);
  if (req.op == OpType::kWrite) {
    for (std::uint32_t i = 0; i < res.pages_completed; ++i)
      expected_[req.start_lpn + i] = 1;
  } else if (req.op == OpType::kTrim) {
    for (std::uint32_t i = 0; i < req.num_pages; ++i)
      expected_[req.start_lpn + i] = 0;
  }
  return res;
}

bool HostOracle::trim(FtlBase& ftl, Lpn lpn) {
  const bool effective = ftl.trim_page(lpn);
  expected_[lpn] = 0;
  return effective;
}

std::string HostOracle::check(FtlBase& ftl) const {
  PHFTL_CHECK(expected_.size() == ftl.logical_pages());
  Report r;
  for (Lpn lpn = 0; lpn < expected_.size(); ++lpn) {
    if (!expected_[lpn]) {
      if (ftl.is_mapped(lpn))
        r.add("lpn ", lpn, " is mapped but was trimmed or never written");
      continue;
    }
    if (!ftl.is_mapped(lpn)) {
      r.add("lpn ", lpn, " was acknowledged but is unmapped");
      continue;
    }
    const std::uint64_t got = ftl.read_page(lpn);
    if (got != FtlBase::payload_of(lpn))
      r.add("lpn ", lpn, " reads ", got, ", not ", FtlBase::payload_of(lpn));
  }
  return r.str() + check_invariants(ftl);
}

std::string check_invariants(const FtlBase& ftl) {
  Report r;
  const Geometry& g = ftl.config().geom;
  const FlashArray& flash = ftl.flash();
  std::uint64_t valid_pages = 0;
  for (std::uint64_t sb = 0; sb < g.num_superblocks(); ++sb) {
    std::uint64_t valid = 0;
    for (std::uint64_t off = 0; off < g.pages_per_superblock(); ++off)
      valid += ftl.page_valid(g.make_ppn(sb, off)) ? 1 : 0;
    if (valid != ftl.valid_count(sb))
      r.add("sb ", sb, " holds ", valid, " valid pages, valid_count ",
            ftl.valid_count(sb));
    valid_pages += valid;
    if (ftl.wear_count(sb) > flash.erase_count(sb))
      r.add("sb ", sb, " wear count ", ftl.wear_count(sb), " exceeds its ",
            flash.erase_count(sb), " erases");
  }

  std::vector<std::uint8_t> indexed(g.num_superblocks(), 0);
  ftl.visit_closed_by_valid(
      [&](std::uint64_t bucket, const std::vector<std::uint64_t>& sbs) {
        for (const std::uint64_t sb : sbs) {
          if (indexed[sb]++) r.add("sb ", sb, " is indexed twice");
          if (ftl.valid_count(sb) != bucket)
            r.add("sb ", sb, " sits in bucket ", bucket, " at valid_count ",
                  ftl.valid_count(sb));
        }
        return true;
      });
  for (std::uint64_t sb = 0; sb < g.num_superblocks(); ++sb) {
    // A journal superblock is never a GC victim, and a parked time-sliced
    // victim stays out of the index until its round ends (docs/QOS.md).
    const bool candidate = flash.state(sb) == SuperblockState::kClosed &&
                           !ftl.is_journal_sb(sb) &&
                           sb != ftl.gc_inflight_victim();
    if (candidate && !indexed[sb])
      r.add("sb ", sb, " is a closed GC candidate but not indexed");
    if (!candidate && indexed[sb])
      r.add("sb ", sb, " is indexed but not a closed GC candidate");
  }

  std::uint64_t mapped = 0;
  for (Lpn lpn = 0; lpn < ftl.logical_pages(); ++lpn) {
    if (!ftl.is_mapped(lpn)) continue;
    ++mapped;
    const Ppn ppn = ftl.lookup(lpn);
    if (!ftl.page_valid(ppn) || ftl.page_lpn(ppn) != lpn)
      r.add("lpn ", lpn, " maps to ppn ", ppn, ", not a valid page it owns");
  }
  if (mapped != ftl.mapped_page_count())
    r.add(mapped, " LPNs are mapped, mapped_page_count ",
          ftl.mapped_page_count());
  std::uint64_t translation = 0;
  if (const MappingTier* tier = ftl.mapping_tier())
    tier->for_each_live_copy([&](std::uint64_t tpn, Ppn ppn) {
      ++translation;
      if (!ftl.page_valid(ppn) || ftl.page_lpn(ppn) != tpn)
        r.add("translation page ", tpn, " lives at ppn ", ppn,
              ", not a valid page it owns");
    });
  if (valid_pages != mapped + translation)
    r.add(valid_pages, " valid pages for ", mapped, " mapped LPNs and ",
          translation, " translation pages");

  const FtlStats& s = ftl.stats();
  if (s.flash_writes() < s.user_writes)
    r.add(s.flash_writes(), " flash writes undercount ", s.user_writes,
          " host writes");
  return r.str();
}

}  // namespace phftl

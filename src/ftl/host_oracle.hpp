// The recovery contract's one executable statement (docs/RECOVERY.md
// "The contract").
//
// HostOracle sends host operations through FtlBase's admission-checked
// calls and records, per LPN, whether the host was promised that the page
// is mapped: an acknowledged write promises it, a trim takes the promise
// back, and a write rejected with ENOSPC changes nothing. check() proves an
// FTL against that record and then runs check_invariants(), the FTL's
// structural invariants over its public introspection. Both return a short
// text report that is empty when everything holds; harnesses print it and
// tests assert on it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ftl/ftl_base.hpp"

namespace phftl {

class HostOracle {
 public:
  explicit HostOracle(std::uint64_t logical_pages)
      : expected_(logical_pages, 0) {}

  /// try_write_page(): kOk promises `lpn`; kEnospc leaves the record as it
  /// was.
  WriteResult write(FtlBase& ftl, Lpn lpn, const WriteContext& ctx);
  /// submit_checked(): a write promises its first pages_completed pages, a
  /// trim takes back every page it names, and a read changes nothing.
  SubmitResult submit(FtlBase& ftl, const HostRequest& req);
  /// trim_page(): takes back the promise whether or not the trim was
  /// effective. Returns what trim_page() returned.
  bool trim(FtlBase& ftl, Lpn lpn);

  /// The contract: every promised page is mapped and read_page() returns
  /// FtlBase::payload_of(lpn); every other page (trimmed, or never written)
  /// is unmapped. Then check_invariants(ftl). The reads are host reads, so
  /// the FTL's read counters move (and a mapping tier may fetch).
  std::string check(FtlBase& ftl) const;

 private:
  std::vector<std::uint8_t> expected_;
};

/// FtlBase's structural invariants, true between any two host operations:
///   * each superblock's valid pages number valid_count(sb);
///   * the victim index holds exactly the closed superblocks that are
///     neither journal superblocks nor the in-flight GC victim, each in the
///     bucket of its valid count;
///   * wear_count(sb) <= flash().erase_count(sb);
///   * every mapped LPN's page is valid and owned by that LPN, and every
///     live translation copy's page by its TPN;
///   * mapped_page_count() equals the number of mapped LPNs;
///   * the valid pages are exactly the mapped LPNs' and the live
///     translation copies';
///   * flash programs never undercount host writes.
/// Returns a report that is empty when all hold.
std::string check_invariants(const FtlBase& ftl);

}  // namespace phftl

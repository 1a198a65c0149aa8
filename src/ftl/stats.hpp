// Write-amplification and flash-operation accounting.
#pragma once

#include <array>
#include <cstdint>

namespace phftl {

/// Most write streams any FTL opens (PHFTL uses 7); FtlBase checks it.
inline constexpr std::uint32_t kMaxStreams = 8;

struct FtlStats {
  std::uint64_t user_writes = 0;  ///< host pages written (U)
  std::uint64_t gc_writes = 0;    ///< valid-page migrations during GC
  std::uint64_t meta_writes = 0;  ///< ML meta pages programmed (PHFTL only)
  std::uint64_t host_reads = 0;   ///< host pages read
  std::uint64_t gc_reads = 0;     ///< page reads performed by GC migration
  std::uint64_t meta_reads = 0;   ///< meta-page reads (metadata cache misses)
  std::uint64_t erases = 0;       ///< superblock erases
  std::uint64_t gc_invocations = 0;
  /// Completed GC rounds, leveling rounds included.
  std::uint64_t gc_rounds = 0;
  /// GC rounds not started (pick_victim backed off, the best victim was
  /// fully valid, or its pages had nowhere to go) or ended early at
  /// fault-driven end of life.
  std::uint64_t gc_aborted_rounds = 0;
  /// Valid pages moved by ended rounds, counted when the round ends.
  std::uint64_t gc_moved_valid_pages = 0;
  /// GC relocation steps (== gc_invocations under stop-the-world; larger
  /// under a gc_step_pages budget, where a round spans many steps).
  std::uint64_t gc_steps = 0;
  /// Steps that hit their gc_step_pages budget and yielded back to the
  /// host mid-round (always 0 under stop-the-world).
  std::uint64_t gc_preemptions = 0;
  /// GC appends redirected to another stream under free-pool pressure.
  std::uint64_t stream_borrows = 0;
  /// Program operations that aborted (page consumed, data retried
  /// elsewhere). Not part of flash_writes(): only successful programs store
  /// data; the wasted pages vanish with their block at retirement.
  std::uint64_t program_failures = 0;
  /// Erase operations that failed (block went bad in place).
  std::uint64_t erase_failures = 0;
  /// Superblocks retired after a program failure (drained by GC, then
  /// taken out of service without an erase).
  std::uint64_t blocks_retired = 0;
  /// Effective trims: logical pages that were mapped when discarded
  /// (trims of already-unmapped pages are no-ops and not counted).
  std::uint64_t trims = 0;
  /// Trim-journal record pages programmed (appends + compaction rewrites).
  std::uint64_t journal_writes = 0;
  /// Trim-journal compactions (old record superblocks reclaimed).
  std::uint64_t trim_journal_compactions = 0;
  /// Host writes rejected at the capacity watermark (ENOSPC).
  std::uint64_t enospc_rejections = 0;
  /// Completed static wear-leveling rounds (cold victim drained into worn
  /// blocks; a subset of gc_invocations — docs/ENDURANCE.md).
  std::uint64_t wl_rounds = 0;
  /// Pages migrated by wear-leveling rounds (a subset of gc_writes, so WA
  /// already charges them).
  std::uint64_t wl_migrations = 0;
  /// Superblocks retired at the P/E-cycle budget (end-of-life, distinct
  /// from blocks_retired's program-failure retirements).
  std::uint64_t wear_retired = 0;
  /// Host reads of unmapped LPNs (never written, or trimmed). Served as
  /// zero-fill without touching flash, but they are real host traffic and
  /// the mapping tier's read-amplification ledger must see them.
  std::uint64_t host_reads_unmapped = 0;
  /// Translation pages programmed (docs/MAPPING.md): dirty CMT write-backs
  /// + GC migrations of valid translation pages + mount-time reconciliation
  /// rewrites. Part of flash_writes(), so WA charges the mapping tier —
  /// no hidden writes.
  std::uint64_t trans_writes = 0;
  /// GC migrations of valid translation pages (a subset of trans_writes;
  /// attribution only, never double-counted in flash_writes()).
  std::uint64_t trans_gc_writes = 0;
  /// Translation pages fetched from flash (CMT misses on a mapped segment
  /// + GC reads of non-resident valid translation pages). The host-path
  /// share, trans_reads_host, is the double-read penalty in
  /// host_read_amplification().
  std::uint64_t trans_reads = 0;
  /// Translation-page fetches charged to host reads (a subset of
  /// trans_reads): an extra term in host read amplification,
  /// (host_reads + trans_reads_host + learned_probe_reads_host) /
  /// (host_reads + host_reads_unmapped).
  std::uint64_t trans_reads_host = 0;
  /// CMT lookups that hit a resident translation page.
  std::uint64_t cmt_hits = 0;
  /// CMT lookups that missed (segment fetched from flash or, for a
  /// never-written segment, materialized empty).
  std::uint64_t cmt_misses = 0;
  /// CMT misses served by a verified learned-index prediction instead of a
  /// translation-page fetch (docs/MAPPING.md "Learned index"). The
  /// successful OOB-verify probe doubles as the data read, so a hit adds
  /// zero flash reads beyond any wasted probes below.
  std::uint64_t learned_hits = 0;
  /// Learned predictions whose probe window contained no page whose OOB
  /// LPN verified — the lookup fell back to the GTD/CMT path. With the
  /// invalidate-on-update contract these only arise from injected
  /// staleness; the counter is the tripwire for that contract.
  std::uint64_t learned_mispredicts = 0;
  /// Wasted learned-probe page reads: every probed page that failed OOB
  /// verification (a hit's final, successful probe is the data read itself
  /// and is not counted here).
  std::uint64_t learned_probe_reads = 0;
  /// Wasted learned probes on the host path (a subset of
  /// learned_probe_reads): charged into host read amplification alongside
  /// trans_reads_host.
  std::uint64_t learned_probe_reads_host = 0;
  /// Host pages the write classifier sent to each stream (entries past the
  /// FTL's stream count stay 0).
  std::array<std::uint64_t, kMaxStreams> stream_host_writes{};
  /// Pages programmed into each stream's superblocks: user pages, GC
  /// migrations, translation pages and meta pages. Journal pages have no
  /// stream, so the array sums to flash_writes() - journal_writes.
  std::array<std::uint64_t, kMaxStreams> stream_flash_writes{};

  /// Total flash page programs (F): user + GC migrations + meta pages +
  /// trim-journal record pages + translation pages.
  std::uint64_t flash_writes() const {
    return user_writes + gc_writes + meta_writes + journal_writes +
           trans_writes;
  }

  /// Paper §V-B: WA = (F - U) / U, reported as a percentage in Fig. 5.
  double write_amplification() const {
    return user_writes == 0
               ? 0.0
               : static_cast<double>(flash_writes() - user_writes) /
                     static_cast<double>(user_writes);
  }

  /// Flash reads per host page read (docs/MAPPING.md "Accounting"):
  /// (host_reads + trans_reads_host + learned_probe_reads_host) /
  /// (host_reads + host_reads_unmapped), 0 with no reads. An unmapped read
  /// is a zero-fill and costs no flash read.
  double host_read_amplification() const {
    const std::uint64_t reads = host_reads + host_reads_unmapped;
    return reads == 0 ? 0.0
                      : static_cast<double>(host_reads + trans_reads_host +
                                            learned_probe_reads_host) /
                            static_cast<double>(reads);
  }

  /// CMT hits / (hits + misses), 0 with no lookups.
  double cmt_hit_rate() const {
    const std::uint64_t lookups = cmt_hits + cmt_misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(cmt_hits) /
                              static_cast<double>(lookups);
  }
};

}  // namespace phftl

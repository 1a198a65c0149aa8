// Functional NAND flash array model.
//
// Enforces the physical rules an FTL must respect (paper §II-A):
//  * erase-before-write: a page may be programmed exactly once per erase,
//  * sequential programming within a superblock (which, with the round-robin
//    die layout, implies sequential programming within each physical block),
//  * reads only from programmed pages.
//
// The array stores a 64-bit payload per page (enough for integrity checking
// via stored LPN/value) plus a fixed-size OOB blob, and counts every program,
// read, and erase for write-amplification and endurance accounting.
//
// Fault model (docs/RECOVERY.md): with a FaultInjector attached, program()
// may fail (the targeted page is consumed but holds no data; returns
// kInvalidPpn) and erase_superblock() may fail (the block goes bad and
// leaves service; returns false). A superblock in the kBad state accepts no
// further operations; retire_superblock() moves a closed block there
// without an erase (the FTL's reaction to a program failure, after GC has
// migrated the block's valid data out).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "flash/geometry.hpp"
#include "util/assert.hpp"

namespace phftl {

class FaultInjector;

/// What a programmed page holds. User pages carry a logical mapping; meta
/// pages (superblock-tail ML metadata, lpn == kInvalidLpn), trim-journal
/// pages (range-encoded discard records), and translation pages (on-flash
/// L2P segments, docs/MAPPING.md) carry none and are skipped by the
/// mount-time L2P rebuild — translation pages are instead keyed by
/// OobData::tpn and rebuild the Global Translation Directory.
enum class PageKind : std::uint8_t {
  kUser = 0,
  kMeta = 1,
  kTrimJournal = 2,
  kTranslation = 3,
};

/// Per-page out-of-band area. Sized to hold the PHFTL per-page metadata
/// copy (LPN + 8B write timestamp + 32B hidden state, §III-C) with room to
/// spare, matching real NAND OOB capacities (paper Fig. 4 shows 256 B).
struct OobData {
  Lpn lpn = kInvalidLpn;
  std::uint64_t write_time = 0;            ///< virtual-clock timestamp
  std::uint8_t gc_count = 0;               ///< times migrated by GC
  PageKind kind = PageKind::kUser;
  std::array<std::int8_t, 32> hidden{};    ///< cached GRU hidden state copy
  /// Global program sequence number, stamped by the flash array at program
  /// time. Mount-time L2P reconstruction uses it to order versions of the
  /// same LPN (GC copies preserve write_time, so the timestamp alone cannot
  /// tell the live copy from the stale original).
  std::uint64_t program_seq = 0;
  /// Erase count of the containing superblock at program time, stamped by
  /// the flash array. Every page programmed since the same erase carries
  /// the same value, so mount-time recovery can re-derive a superblock's
  /// wear from any one of its programmed pages — a documented lower bound
  /// for free blocks, exact for open/closed ones (docs/ENDURANCE.md).
  std::uint64_t erase_count = 0;
  /// Trim-journal pages only: program-sequence cutoff of the records in
  /// this page. A journaled trim tombstones an LPN iff the LPN's newest
  /// flash copy has program_seq <= this cutoff (a rewrite after the trim
  /// necessarily programmed with a higher sequence).
  std::uint64_t trim_seq = 0;
  /// Translation pages only (kind == kTranslation): which translation page
  /// this flash copy holds. lpn stays kInvalidLpn so the L2P rebuild skips
  /// it; the GTD rebuild keys on this field, newest program_seq wins.
  std::uint64_t tpn = kInvalidLpn;
};

enum class SuperblockState : std::uint8_t { kFree, kOpen, kClosed, kBad };

class FlashArray {
 public:
  explicit FlashArray(const Geometry& geom);

  const Geometry& geometry() const { return geom_; }

  /// Attach (or detach, with nullptr) a fault injector. Factory bad blocks
  /// listed in the injector's config are marked bad immediately; attach
  /// before the FTL builds its free pool.
  void attach_fault_injector(FaultInjector* injector);

  // --- Superblock lifecycle ---
  SuperblockState state(std::uint64_t sb) const { return sbs_[sb].state; }
  bool is_bad(std::uint64_t sb) const {
    return sbs_[sb].state == SuperblockState::kBad;
  }

  /// Transition a free superblock to open (write pointer at offset 0).
  void open_superblock(std::uint64_t sb);

  /// Mark a (possibly partially programmed) open superblock closed
  /// (read-only). The FTL closes early on program failure and at mount time
  /// for blocks left open by a power cut.
  void close_superblock(std::uint64_t sb);

  /// Erase: all pages become unprogrammed; state returns to free. With an
  /// attached injector the erase may fail — the block then goes bad
  /// permanently (contents undefined, no further operations) and the call
  /// returns false. With a P/E-cycle budget set (set_max_pe_cycles), an
  /// erase that consumes the block's last budgeted cycle succeeds
  /// physically but retires the block at end-of-life (kBad) instead of
  /// returning it to service — also reported as false; callers distinguish
  /// the two via wear_exhausted().
  bool erase_superblock(std::uint64_t sb);

  /// P/E-cycle retirement budget per superblock. 0 (default) = unlimited —
  /// behavior is then bit-identical to a budget-less array. Set before the
  /// first erase; the budget applies from the next erase on.
  void set_max_pe_cycles(std::uint64_t budget) { max_pe_cycles_ = budget; }
  std::uint64_t max_pe_cycles() const { return max_pe_cycles_; }
  /// True if `sb` has consumed its whole P/E budget (its last erase retired
  /// it). After a false return from erase_superblock this distinguishes
  /// end-of-life retirement from an injected erase failure: the count only
  /// reaches the budget through a *successful* erase, which immediately
  /// retires the block, so an exhausted block is always kBad.
  bool wear_exhausted(std::uint64_t sb) const {
    return max_pe_cycles_ > 0 && sbs_[sb].erase_count >= max_pe_cycles_;
  }

  /// Take a closed superblock out of service without erasing it (the FTL
  /// retires blocks that failed a program once their valid data has been
  /// migrated away). Stale page contents remain but the block is kBad and
  /// excluded from mount-time scans.
  void retire_superblock(std::uint64_t sb);

  /// Next offset to be programmed in an open superblock.
  std::uint64_t write_pointer(std::uint64_t sb) const {
    return sbs_[sb].next_offset;
  }
  bool is_full(std::uint64_t sb) const {
    return sbs_[sb].next_offset == geom_.pages_per_superblock();
  }
  std::uint64_t erase_count(std::uint64_t sb) const {
    return sbs_[sb].erase_count;
  }

  // --- Page operations ---
  /// Program the next page of open superblock `sb`; returns its PPN. With
  /// an attached injector the program may fail: the targeted page is
  /// consumed (the write pointer advances — NAND cannot retry a page) but
  /// stays unprogrammed, and kInvalidPpn is returned. The FTL must retry
  /// the data elsewhere and retire the block.
  Ppn program(std::uint64_t sb, std::uint64_t payload, const OobData& oob);

  /// Program a page whose 16 KB data area holds a structured blob instead
  /// of the usual 64-bit integrity payload (trim-journal record pages).
  /// The blob models the page's data area: at 8 B per element it may hold
  /// at most page_size/8 elements. Same failure semantics as program().
  Ppn program_blob(std::uint64_t sb, const OobData& oob,
                   std::span<const std::uint64_t> blob);

  /// Read a programmed page's payload.
  std::uint64_t read(Ppn ppn) const;
  /// Read a programmed page's OOB area.
  const OobData& read_oob(Ppn ppn) const;
  /// Read a programmed page's data-area blob (empty for ordinary pages).
  const std::vector<std::uint64_t>& read_blob(Ppn ppn) const;
  bool is_programmed(Ppn ppn) const { return programmed_[ppn] != 0; }

  /// Highest program sequence number stamped so far (0 = nothing
  /// programmed). The trim journal snapshots this as each record page's
  /// tombstone cutoff.
  std::uint64_t program_seq() const { return program_seq_; }

  // --- Counters ---
  std::uint64_t total_programs() const { return programs_; }
  std::uint64_t total_reads() const { return reads_; }
  std::uint64_t total_erases() const { return erases_; }
  std::uint64_t max_erase_count() const;
  /// Injected program failures observed by this array.
  std::uint64_t program_failures() const { return program_failures_; }
  /// Injected erase failures observed by this array.
  std::uint64_t erase_failures() const { return erase_failures_; }
  /// Superblocks currently out of service (factory bad + retired + erase
  /// failures + wear retirements).
  std::uint64_t bad_block_count() const { return bad_blocks_; }
  /// Superblocks retired because their P/E budget ran out.
  std::uint64_t wear_retired_count() const { return wear_retired_; }

 private:
  struct SbInfo {
    SuperblockState state = SuperblockState::kFree;
    std::uint64_t next_offset = 0;
    std::uint64_t erase_count = 0;
  };

  Geometry geom_;
  std::vector<SbInfo> sbs_;
  std::vector<std::uint64_t> payload_;
  std::vector<OobData> oob_;
  /// Sparse data-area blobs (trim-journal pages only); erased with the
  /// superblock like any page content. Flat per-PPN slot index into a slab
  /// of blob vectors (recycled through a free list) — program_blob sits on
  /// the trim-journal append path, so no tree lookups there.
  static constexpr std::int32_t kNoBlob = -1;
  std::vector<std::int32_t> blob_slot_;             ///< per PPN; kNoBlob = none
  std::vector<std::vector<std::uint64_t>> blob_store_;
  std::vector<std::uint32_t> blob_free_;            ///< recyclable slot ids
  std::vector<std::uint8_t> programmed_;
  FaultInjector* injector_ = nullptr;
  mutable std::uint64_t reads_ = 0;
  std::uint64_t programs_ = 0;
  std::uint64_t erases_ = 0;
  std::uint64_t program_seq_ = 0;
  std::uint64_t program_failures_ = 0;
  std::uint64_t erase_failures_ = 0;
  std::uint64_t bad_blocks_ = 0;
  std::uint64_t max_pe_cycles_ = 0;  ///< 0 = unlimited
  std::uint64_t wear_retired_ = 0;
};

}  // namespace phftl

// ML metadata management: flash data layout and the RAM metadata cache
// (paper §III-C, Fig. 4).
//
// Every data page carries 40 B of ML metadata: the page's last-write
// timestamp (8 B, for lifetime computation — wide enough that the virtual
// clock never wraps) and its cached GRU hidden state (32 B int8). Metadata lives in *meta pages* at the tail of each
// superblock, one entry per data page in superblock order, so the meta-page
// address (MPPN) is computable from a data page's offset. RAM holds only:
//   * per-open-superblock write buffers (entries accumulate in RAM until the
//     superblock closes and the meta pages are programmed), and
//   * a small on-demand cache of meta pages with exact LRU eviction, sized
//     at 1 % of all meta pages. The paper describes the index as a red-black
//     tree; we keep its hit/miss/eviction behaviour bit-identical but store
//     it allocation-free (FlatMetaCache, src/core/meta_cache.hpp) because
//     every host write crosses this structure.
// Consecutive data pages share a meta page, so one flash read serves many
// subsequent retrievals (the 98–99.9 % hit rates of §V-B).
//
// Each data page's OOB area additionally carries a copy of its own entry so
// GC migrates metadata without touching meta pages (paper Fig. 4).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/meta_cache.hpp"
#include "flash/geometry.hpp"

namespace phftl::core {

inline constexpr std::uint64_t kNeverWritten = ~0ULL;

/// One per-page metadata record: 8 B timestamp + 32 B hidden state = 40 B.
struct MetaEntry {
  std::uint64_t write_time = kNeverWritten;
  std::array<std::int8_t, 32> hidden{};
};
inline constexpr std::size_t kMetaEntryBytes = 40;

class MetaStore {
 public:
  struct Config {
    Geometry geom;
    /// Cache capacity as a fraction of the total meta-page count (paper: 1%).
    double cache_fraction = 0.01;
    /// Lower bound on cache capacity in meta pages.
    std::size_t min_cache_pages = 16;
  };

  explicit MetaStore(const Config& cfg);

  /// Meta pages at the tail of each superblock of `geom`: the fixed point
  /// of meta = ceil((pages_per_superblock - meta) / entries_per_page), at
  /// least one. The FTL's StreamLayout reserves them before a MetaStore
  /// exists.
  static std::uint32_t meta_pages_for(const Geometry& geom);

  // --- layout ---
  std::uint32_t entries_per_meta_page() const { return entries_per_page_; }
  std::uint32_t meta_pages_per_superblock() const { return meta_per_sb_; }
  std::uint64_t data_pages_per_superblock() const { return data_per_sb_; }
  std::size_t cache_capacity_pages() const { return cache_capacity_; }
  std::uint64_t total_meta_pages() const {
    return static_cast<std::uint64_t>(meta_per_sb_) *
           geom_.num_superblocks();
  }
  /// RAM the cache may hold at capacity, in bytes (entries only).
  std::uint64_t cache_capacity_bytes() const {
    return static_cast<std::uint64_t>(cache_capacity_) * entries_per_page_ *
           kMetaEntryBytes;
  }

  /// Meta-page id covering the data page at `ppn`.
  std::uint64_t mppn_of(Ppn ppn) const;

  // --- access ---
  /// Retrieve the metadata of the data page at `ppn`. `sb_open` indicates
  /// the page's superblock is still open (entries are in the RAM write
  /// buffer — no flash I/O). For closed superblocks the meta page is looked
  /// up in the cache; `*flash_read` is set when a miss forced a meta-page
  /// read from flash. Returns the entry by value: a get may evict or insert
  /// cache state, so handing out a reference into the store invites a
  /// dangling read when a later put/erase pattern reshuffles it.
  MetaEntry get(Ppn ppn, bool sb_open, bool* flash_read);

  /// Record the metadata entry for the data page just written at `ppn`
  /// (into the open superblock's RAM buffer; also what finalize programs).
  void put(Ppn ppn, const MetaEntry& entry);

  /// Superblock erased: its meta pages are gone; drop them from the cache.
  void on_superblock_erased(std::uint64_t sb);

  /// Power-cut cold start (docs/RECOVERY.md): the RAM cache and the open
  /// superblocks' write buffers are gone. Drops every cached meta page and
  /// wipes all entries; the owner repopulates the valid pages' entries from
  /// their per-page OOB copies during recovery. Hit/miss statistics are
  /// process-lifetime diagnostics and survive.
  void reset_cold();

  // --- statistics (paper §V-B cache-hit analysis) ---
  /// By reference: PHFTL exports the two hit counts as counter views.
  const std::uint64_t& cache_hits() const { return hits_; }
  std::uint64_t cache_misses() const { return misses_; }
  const std::uint64_t& buffer_hits() const { return buffer_hits_; }
  double cache_hit_rate() const {
    const std::uint64_t total = hits_ + misses_;
    return total ? static_cast<double>(hits_) / static_cast<double>(total)
                 : 1.0;
  }

 private:
  Geometry geom_;
  std::uint32_t entries_per_page_;
  std::uint32_t meta_per_sb_;
  std::uint64_t data_per_sb_;
  std::size_t cache_capacity_;

  /// Entry for the data page stored at each PPN. Entries of open
  /// superblocks model the RAM write buffer; entries of closed superblocks
  /// model meta-page contents in flash (reachable via the cache).
  std::vector<MetaEntry> entries_;

  /// Cache index keyed by MPPN: flat open-addressed hash + array-backed
  /// LRU, behaviourally identical to the paper's tree+list (differential
  /// test in tests/test_meta.cpp).
  FlatMetaCache cache_;

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t buffer_hits_ = 0;
};

}  // namespace phftl::core

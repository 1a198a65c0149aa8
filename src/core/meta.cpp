#include "core/meta.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace phftl::core {

std::uint32_t MetaStore::meta_pages_for(const Geometry& geom) {
  const auto per_page =
      static_cast<std::uint32_t>(geom.page_size / kMetaEntryBytes);
  PHFTL_CHECK_MSG(per_page > 0, "page too small for meta entries");
  const std::uint64_t pps = geom.pages_per_superblock();
  std::uint32_t meta = 0;
  for (;;) {
    const std::uint64_t data = pps - meta;
    const auto need =
        static_cast<std::uint32_t>((data + per_page - 1) / per_page);
    if (need == meta) break;
    meta = need;
  }
  meta = std::max<std::uint32_t>(meta, 1);
  PHFTL_CHECK_MSG(pps > meta, "superblock too small");
  return meta;
}

MetaStore::MetaStore(const Config& cfg) : geom_(cfg.geom) {
  entries_per_page_ =
      static_cast<std::uint32_t>(geom_.page_size / kMetaEntryBytes);
  meta_per_sb_ = meta_pages_for(geom_);
  data_per_sb_ = geom_.pages_per_superblock() - meta_per_sb_;

  const auto cap = static_cast<std::size_t>(
      static_cast<double>(total_meta_pages()) * cfg.cache_fraction);
  cache_capacity_ = std::max(cap, cfg.min_cache_pages);
  cache_.reset(cache_capacity_);

  entries_.resize(geom_.total_pages());
}

std::uint64_t MetaStore::mppn_of(Ppn ppn) const {
  const std::uint64_t sb = geom_.superblock_of(ppn);
  const std::uint64_t offset = geom_.offset_of(ppn);
  PHFTL_CHECK_MSG(offset < data_per_sb_, "PPN is a meta page, not data");
  return sb * meta_per_sb_ + offset / entries_per_page_;
}

MetaEntry MetaStore::get(Ppn ppn, bool sb_open, bool* flash_read) {
  PHFTL_CHECK(ppn < entries_.size());
  if (flash_read) *flash_read = false;
  if (sb_open) {
    // Entry still sits in the open superblock's RAM write buffer.
    ++buffer_hits_;
    return entries_[ppn];
  }
  const CacheAccess a = cache_.access(mppn_of(ppn));
  if (a.hit) {
    ++hits_;
  } else {
    ++misses_;
    if (flash_read) *flash_read = true;  // meta page fetched from flash
  }
  return entries_[ppn];
}

void MetaStore::put(Ppn ppn, const MetaEntry& entry) {
  PHFTL_CHECK(ppn < entries_.size());
  PHFTL_CHECK_MSG(geom_.offset_of(ppn) < data_per_sb_,
                  "meta entries attach to data pages only");
  entries_[ppn] = entry;
}

void MetaStore::on_superblock_erased(std::uint64_t sb) {
  // Invalidate cached meta pages of the erased superblock.
  const std::uint64_t first = sb * meta_per_sb_;
  for (std::uint64_t mppn = first; mppn < first + meta_per_sb_; ++mppn)
    cache_.erase(mppn);
  // Reset the entries (flash content is gone after erase).
  const std::uint64_t base = sb * geom_.pages_per_superblock();
  std::fill(entries_.begin() + static_cast<std::ptrdiff_t>(base),
            entries_.begin() +
                static_cast<std::ptrdiff_t>(base + geom_.pages_per_superblock()),
            MetaEntry{});
}

void MetaStore::reset_cold() {
  cache_.clear();
  std::fill(entries_.begin(), entries_.end(), MetaEntry{});
}

}  // namespace phftl::core

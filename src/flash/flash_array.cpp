#include "flash/flash_array.hpp"

#include <algorithm>

#include "flash/fault_injector.hpp"

namespace phftl {

FlashArray::FlashArray(const Geometry& geom)
    : geom_(geom),
      sbs_(geom.num_superblocks()),
      payload_(geom.total_pages(), 0),
      oob_(geom.total_pages()),
      blob_slot_(geom.total_pages(), kNoBlob),
      programmed_(geom.total_pages(), 0) {
  geom_.validate();
}

void FlashArray::attach_fault_injector(FaultInjector* injector) {
  injector_ = injector;
  if (!injector_) return;
  for (const std::uint64_t sb : injector_->config().factory_bad_blocks) {
    PHFTL_CHECK(sb < sbs_.size());
    if (sbs_[sb].state == SuperblockState::kBad) continue;
    PHFTL_CHECK_MSG(sbs_[sb].state == SuperblockState::kFree,
                    "factory bad blocks must be marked before first use");
    sbs_[sb].state = SuperblockState::kBad;
    ++bad_blocks_;
  }
}

void FlashArray::open_superblock(std::uint64_t sb) {
  PHFTL_CHECK(sb < sbs_.size());
  PHFTL_CHECK_MSG(sbs_[sb].state == SuperblockState::kFree,
                  "open requires a free superblock");
  sbs_[sb].state = SuperblockState::kOpen;
  sbs_[sb].next_offset = 0;
}

void FlashArray::close_superblock(std::uint64_t sb) {
  PHFTL_CHECK(sb < sbs_.size());
  PHFTL_CHECK_MSG(sbs_[sb].state == SuperblockState::kOpen,
                  "close requires an open superblock");
  sbs_[sb].state = SuperblockState::kClosed;
}

bool FlashArray::erase_superblock(std::uint64_t sb) {
  PHFTL_CHECK(sb < sbs_.size());
  PHFTL_CHECK_MSG(sbs_[sb].state == SuperblockState::kClosed,
                  "only closed superblocks are erased");
  if (injector_ && injector_->next_erase_fails()) {
    // The block failed to erase: it leaves service permanently. Its page
    // contents are undefined from here on; nothing may program or read it.
    sbs_[sb].state = SuperblockState::kBad;
    ++erase_failures_;
    ++bad_blocks_;
    return false;
  }
  const std::uint64_t base = sb * geom_.pages_per_superblock();
  const std::uint64_t n = geom_.pages_per_superblock();
  std::fill(programmed_.begin() + static_cast<std::ptrdiff_t>(base),
            programmed_.begin() + static_cast<std::ptrdiff_t>(base + n), 0);
  for (std::uint64_t ppn = base; ppn < base + n; ++ppn) {
    const std::int32_t slot = blob_slot_[ppn];
    if (slot == kNoBlob) continue;
    blob_store_[static_cast<std::size_t>(slot)].clear();
    blob_free_.push_back(static_cast<std::uint32_t>(slot));
    blob_slot_[ppn] = kNoBlob;
  }
  sbs_[sb].next_offset = 0;
  ++sbs_[sb].erase_count;
  ++erases_;
  if (max_pe_cycles_ > 0 && sbs_[sb].erase_count >= max_pe_cycles_) {
    // The erase itself worked, but it consumed the block's last budgeted
    // P/E cycle: the block retires at end-of-life instead of returning to
    // service. Its pages are erased (nothing to read), so unlike an erase
    // failure the contents are defined — just permanently unprogrammable.
    sbs_[sb].state = SuperblockState::kBad;
    ++wear_retired_;
    ++bad_blocks_;
    return false;
  }
  sbs_[sb].state = SuperblockState::kFree;
  return true;
}

void FlashArray::retire_superblock(std::uint64_t sb) {
  PHFTL_CHECK(sb < sbs_.size());
  PHFTL_CHECK_MSG(sbs_[sb].state == SuperblockState::kClosed,
                  "retire a block after closing and draining it");
  sbs_[sb].state = SuperblockState::kBad;
  ++bad_blocks_;
}

Ppn FlashArray::program(std::uint64_t sb, std::uint64_t payload,
                        const OobData& oob) {
  PHFTL_CHECK(sb < sbs_.size());
  SbInfo& info = sbs_[sb];
  PHFTL_CHECK_MSG(info.state == SuperblockState::kOpen,
                  "program requires an open superblock");
  PHFTL_CHECK_MSG(info.next_offset < geom_.pages_per_superblock(),
                  "superblock is full");
  const Ppn ppn = geom_.make_ppn(sb, info.next_offset);
  PHFTL_CHECK_MSG(!programmed_[ppn], "double program without erase");
  if (injector_ && injector_->next_program_fails()) {
    // Program abort: the page is consumed (in-order programming cannot
    // revisit it) but holds no reliable data. The caller retries elsewhere.
    ++info.next_offset;
    ++program_failures_;
    return kInvalidPpn;
  }
  programmed_[ppn] = 1;
  payload_[ppn] = payload;
  oob_[ppn] = oob;
  oob_[ppn].program_seq = ++program_seq_;  // stamp global program order
  oob_[ppn].erase_count = info.erase_count;  // stamp wear for recovery
  ++info.next_offset;
  ++programs_;
  return ppn;
}

Ppn FlashArray::program_blob(std::uint64_t sb, const OobData& oob,
                             std::span<const std::uint64_t> blob) {
  PHFTL_CHECK_MSG(blob.size() * 8 <= geom_.page_size,
                  "blob exceeds the page data area");
  const Ppn ppn = program(sb, /*payload=*/0, oob);
  if (ppn == kInvalidPpn) return kInvalidPpn;  // page consumed, blob lost
  std::uint32_t slot;
  if (!blob_free_.empty()) {
    slot = blob_free_.back();
    blob_free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(blob_store_.size());
    blob_store_.emplace_back();
  }
  blob_store_[slot].assign(blob.begin(), blob.end());
  blob_slot_[ppn] = static_cast<std::int32_t>(slot);
  return ppn;
}

std::uint64_t FlashArray::read(Ppn ppn) const {
  PHFTL_CHECK(ppn < payload_.size());
  PHFTL_CHECK_MSG(programmed_[ppn], "read of unprogrammed page");
  ++reads_;
  return payload_[ppn];
}

const OobData& FlashArray::read_oob(Ppn ppn) const {
  PHFTL_CHECK(ppn < oob_.size());
  PHFTL_CHECK_MSG(programmed_[ppn], "OOB read of unprogrammed page");
  return oob_[ppn];
}

const std::vector<std::uint64_t>& FlashArray::read_blob(Ppn ppn) const {
  PHFTL_CHECK(ppn < oob_.size());
  PHFTL_CHECK_MSG(programmed_[ppn], "blob read of unprogrammed page");
  static const std::vector<std::uint64_t> kEmpty;
  const std::int32_t slot = blob_slot_[ppn];
  return slot == kNoBlob ? kEmpty
                         : blob_store_[static_cast<std::size_t>(slot)];
}

std::uint64_t FlashArray::max_erase_count() const {
  std::uint64_t mx = 0;
  for (const auto& s : sbs_) mx = std::max(mx, s.erase_count);
  return mx;
}

}  // namespace phftl

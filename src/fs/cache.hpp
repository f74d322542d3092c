// LRU block cache.
//
// Sits between MiniFS and the block device inside the VFS server, like the
// MINIX buffer cache. Hits complete synchronously; misses make the calling
// VFS worker thread block on the device (and, per paper SIV-E, close the
// recovery window because the thread yields).
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "fs/blockdev.hpp"

namespace osiris::fs {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;
};

class BlockCache {
 public:
  explicit BlockCache(std::size_t capacity_blocks) : capacity_(capacity_blocks) {
    OSIRIS_ASSERT(capacity_ >= 1);
  }

  /// Pointer to cached block data, or nullptr on miss. Refreshes LRU order.
  [[nodiscard]] std::byte* lookup(std::uint32_t bno);

  /// Residency check for a gathered miss: true if `bno` is cached. An absent
  /// block counts one miss; a present one counts nothing and keeps its LRU
  /// position (the caller does not read it now).
  [[nodiscard]] bool probe(std::uint32_t bno);

  /// Insert (or overwrite) a block; returns its cached data pointer.
  /// If the cache is full, the least recently used *clean* entry is evicted;
  /// a dirty victim is reported through `evicted_dirty` so the caller can
  /// write it back first.
  std::byte* insert(std::uint32_t bno, std::span<const std::byte, kBlockSize> data,
                    std::optional<std::pair<std::uint32_t, std::vector<std::byte>>>* evicted_dirty);

  void mark_dirty(std::uint32_t bno);
  [[nodiscard]] bool is_dirty(std::uint32_t bno) const;

  /// All dirty blocks (for sync); marks them clean.
  [[nodiscard]] std::vector<std::pair<std::uint32_t, std::vector<std::byte>>> take_dirty();

  void invalidate_all();

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }

 private:
  struct Entry {
    std::uint32_t bno;
    bool dirty = false;
    std::vector<std::byte> data;  // kBlockSize bytes
  };

  void touch(std::uint32_t bno);

  std::size_t capacity_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::uint32_t, std::list<Entry>::iterator> entries_;
  CacheStats stats_;
};

}  // namespace osiris::fs

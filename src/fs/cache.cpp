#include "fs/cache.hpp"

#include <cstring>

namespace osiris::fs {

std::byte* BlockCache::lookup(std::uint32_t bno) {
  auto it = entries_.find(bno);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  touch(bno);
  return entries_[bno]->data.data();
}

bool BlockCache::probe(std::uint32_t bno) {
  if (entries_.count(bno) != 0) return true;
  ++stats_.misses;
  return false;
}

std::byte* BlockCache::insert(
    std::uint32_t bno, std::span<const std::byte, kBlockSize> data,
    std::optional<std::pair<std::uint32_t, std::vector<std::byte>>>* evicted_dirty) {
  if (evicted_dirty) evicted_dirty->reset();
  if (auto it = entries_.find(bno); it != entries_.end()) {
    std::memcpy(it->second->data.data(), data.data(), kBlockSize);
    touch(bno);
    return it->second->data.data();
  }
  if (entries_.size() >= capacity_) {
    Entry& victim = lru_.back();
    ++stats_.evictions;
    if (victim.dirty) {
      ++stats_.writebacks;
      if (evicted_dirty) evicted_dirty->emplace(victim.bno, std::move(victim.data));
    }
    entries_.erase(victim.bno);
    lru_.pop_back();
  }
  lru_.push_front(Entry{bno, false, std::vector<std::byte>(data.begin(), data.end())});
  entries_[bno] = lru_.begin();
  return lru_.begin()->data.data();
}

void BlockCache::mark_dirty(std::uint32_t bno) {
  auto it = entries_.find(bno);
  OSIRIS_ASSERT(it != entries_.end());
  it->second->dirty = true;
}

bool BlockCache::is_dirty(std::uint32_t bno) const {
  auto it = entries_.find(bno);
  return it != entries_.end() && it->second->dirty;
}

std::vector<std::pair<std::uint32_t, std::vector<std::byte>>> BlockCache::take_dirty() {
  std::vector<std::pair<std::uint32_t, std::vector<std::byte>>> out;
  for (Entry& e : lru_) {
    if (e.dirty) {
      out.emplace_back(e.bno, e.data);  // copy: block stays cached
      e.dirty = false;
    }
  }
  return out;
}

void BlockCache::invalidate_all() {
  lru_.clear();
  entries_.clear();
}

void BlockCache::touch(std::uint32_t bno) {
  auto it = entries_.find(bno);
  OSIRIS_ASSERT(it != entries_.end());
  lru_.splice(lru_.begin(), lru_, it->second);
  entries_[bno] = lru_.begin();
}

}  // namespace osiris::fs

#include "cache/inode_cache.h"

#include <algorithm>

namespace raefs {

std::optional<DiskInode> InodeCache::get(Ino ino) const {
  const Shard& s = shard_of(ino);
  std::lock_guard<std::mutex> lk(s.mu);
  auto it = s.map.find(ino);
  if (it == s.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second.inode;
}

void InodeCache::put(Ino ino, const DiskInode& inode, bool dirty) {
  Shard& s = shard_of(ino);
  std::lock_guard<std::mutex> lk(s.mu);
  if (!dirty) {
    auto [it, inserted] = s.map.try_emplace(ino);
    if (inserted) it->second.inode = inode;
    return;
  }
  Entry& e = s.map[ino];
  e.inode = inode;
  if (e.dirty) return;
  e.dirty = true;
  s.dirty_list.push_front(ino);
  e.dirty_pos = s.dirty_list.begin();
}

void InodeCache::erase(Ino ino) {
  Shard& s = shard_of(ino);
  std::lock_guard<std::mutex> lk(s.mu);
  auto it = s.map.find(ino);
  if (it == s.map.end()) return;
  if (it->second.dirty) s.dirty_list.erase(it->second.dirty_pos);
  s.map.erase(it);
}

std::vector<std::pair<Ino, DiskInode>> InodeCache::dirty_snapshot() const {
  std::vector<std::pair<Ino, DiskInode>> out;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lk(s.mu);
    for (Ino ino : s.dirty_list) out.emplace_back(ino, s.map.at(ino).inode);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void InodeCache::mark_clean(Ino ino) {
  Shard& s = shard_of(ino);
  std::lock_guard<std::mutex> lk(s.mu);
  auto it = s.map.find(ino);
  if (it == s.map.end() || !it->second.dirty) return;
  it->second.dirty = false;
  s.dirty_list.erase(it->second.dirty_pos);
}

void InodeCache::drop_all() {
  for (auto& s : shards_) {
    std::lock_guard<std::mutex> lk(s.mu);
    s.map.clear();
    s.dirty_list.clear();
  }
}

size_t InodeCache::size() const {
  size_t total = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lk(s.mu);
    total += s.map.size();
  }
  return total;
}

}  // namespace raefs

#include "httpsim/lru_cache.h"

#include <cassert>

namespace demuxabr {

LruCache::LruCache(std::int64_t capacity_bytes) : capacity_bytes_(capacity_bytes) {
  assert(capacity_bytes >= 0);
}

bool LruCache::get(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  lru_.splice(lru_.begin(), lru_, it->second);
  return true;
}

void LruCache::put(const std::string& key, std::int64_t bytes) {
  assert(bytes >= 0);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Re-registration may change the object's size (VBR re-encode): account
    // the delta and re-run eviction so the capacity bound keeps holding. An
    // entry grown past the whole capacity evicts itself (it sits at the
    // front, so everything behind it goes first).
    lru_.splice(lru_.begin(), lru_, it->second);
    used_bytes_ += bytes - it->second->bytes;
    it->second->bytes = bytes;
    evict_until_fits(0);
    return;
  }
  if (capacity_bytes_ > 0 && bytes > capacity_bytes_) return;  // object can never fit
  evict_until_fits(bytes);
  lru_.push_front({key, bytes});
  entries_[key] = lru_.begin();
  used_bytes_ += bytes;
}

bool LruCache::contains(const std::string& key) const {
  return entries_.find(key) != entries_.end();
}

void LruCache::evict_until_fits(std::int64_t incoming_bytes) {
  if (capacity_bytes_ == 0) return;  // unbounded
  while (!lru_.empty() && used_bytes_ + incoming_bytes > capacity_bytes_) {
    const Entry& victim = lru_.back();
    used_bytes_ -= victim.bytes;
    entries_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
  }
}

}  // namespace demuxabr

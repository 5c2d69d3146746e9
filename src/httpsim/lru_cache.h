// Byte-capacity LRU cache, the CDN edge model for the §1 cache-hit argument.
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

namespace demuxabr {

class LruCache {
 public:
  /// capacity_bytes == 0 means "unbounded".
  explicit LruCache(std::int64_t capacity_bytes);

  /// Look up (and touch) an object. True on hit.
  bool get(const std::string& key);

  /// Insert an object. An existing key is touched and re-sized to `bytes`
  /// (the delta counts against capacity, re-running eviction). Evicts
  /// least-recently-used objects until the new object fits.
  void put(const std::string& key, std::int64_t bytes);

  [[nodiscard]] bool contains(const std::string& key) const;
  [[nodiscard]] std::int64_t used_bytes() const { return used_bytes_; }
  [[nodiscard]] std::size_t object_count() const { return entries_.size(); }
  [[nodiscard]] std::size_t eviction_count() const { return evictions_; }

 private:
  struct Entry {
    std::string key;
    std::int64_t bytes;
  };

  void evict_until_fits(std::int64_t incoming_bytes);

  std::int64_t capacity_bytes_;
  std::int64_t used_bytes_ = 0;
  std::size_t evictions_ = 0;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> entries_;
};

}  // namespace demuxabr

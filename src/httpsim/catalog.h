// Object catalogs for the storage / CDN-caching motivation of §1: the origin
// stores either demuxed objects (M video + N audio tracks) or muxed objects
// (M x N combined tracks). The catalog maps chunk-object keys to byte sizes
// and accounts total storage.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "media/content.h"

namespace demuxabr {

enum class StorageMode { kDemuxed, kMuxed };

inline const char* storage_mode_name(StorageMode mode) {
  return mode == StorageMode::kDemuxed ? "demuxed" : "muxed";
}

/// Key of one demuxed chunk object: "V3/00042".
std::string chunk_object_key(const std::string& track_id, int chunk_index);

/// Key of one muxed chunk object, the video chunk plus the audio chunk:
/// "V3+A1/00042".
std::string muxed_chunk_object_key(const std::string& video_id,
                                   const std::string& audio_id, int chunk_index);

/// The origin server's object inventory.
class ObjectCatalog {
 public:
  /// Register an object. Duplicate keys keep the first size.
  void add(const std::string& key, std::int64_t bytes);

  [[nodiscard]] bool contains(const std::string& key) const;
  /// Size of an object; -1 when unknown.
  [[nodiscard]] std::int64_t size_of(const std::string& key) const;
  [[nodiscard]] std::int64_t total_bytes() const { return total_bytes_; }
  [[nodiscard]] std::size_t object_count() const { return objects_.size(); }

 private:
  std::map<std::string, std::int64_t> objects_;
  std::int64_t total_bytes_ = 0;
};

/// Build the demuxed catalog: one object per (track, chunk).
ObjectCatalog build_demuxed_catalog(const Content& content);

/// Build the muxed catalog: one object per (video x audio combination,
/// chunk); each object is the video chunk plus the audio chunk.
ObjectCatalog build_muxed_catalog(const Content& content);

/// Storage comparison for the §1 motivation table.
struct StorageReport {
  std::int64_t demuxed_bytes = 0;
  std::int64_t muxed_bytes = 0;
  std::size_t demuxed_objects = 0;
  std::size_t muxed_objects = 0;
  [[nodiscard]] double muxed_to_demuxed_ratio() const {
    return demuxed_bytes > 0
               ? static_cast<double>(muxed_bytes) / static_cast<double>(demuxed_bytes)
               : 0.0;
  }
};
StorageReport compare_storage(const Content& content);

}  // namespace demuxabr

#include "httpsim/catalog.h"

#include <cstdio>

#include "media/combination.h"

namespace demuxabr {

std::string chunk_object_key(const std::string& track_id, int chunk_index) {
  // One small snprintf for the suffix: short keys stay in the string's
  // inline buffer, and keys are built on every fleet cache admit and fill.
  char suffix[16];
  const int length = std::snprintf(suffix, sizeof(suffix), "/%05d", chunk_index);
  std::string key = track_id;
  key.append(suffix, static_cast<std::size_t>(length));
  return key;
}

std::string muxed_chunk_object_key(const std::string& video_id,
                                   const std::string& audio_id, int chunk_index) {
  return chunk_object_key(video_id + "+" + audio_id, chunk_index);
}

void ObjectCatalog::add(const std::string& key, std::int64_t bytes) {
  auto [it, inserted] = objects_.emplace(key, bytes);
  if (inserted) total_bytes_ += bytes;
}

bool ObjectCatalog::contains(const std::string& key) const {
  return objects_.find(key) != objects_.end();
}

std::int64_t ObjectCatalog::size_of(const std::string& key) const {
  auto it = objects_.find(key);
  return it == objects_.end() ? -1 : it->second;
}

ObjectCatalog build_demuxed_catalog(const Content& content) {
  ObjectCatalog catalog;
  for (const auto* list : {&content.ladder().audio(), &content.ladder().video()}) {
    for (const TrackInfo& track : *list) {
      for (const ChunkInfo& chunk : content.chunks(track.id)) {
        catalog.add(chunk_object_key(track.id, chunk.index), chunk.size_bytes);
      }
    }
  }
  return catalog;
}

ObjectCatalog build_muxed_catalog(const Content& content) {
  ObjectCatalog catalog;
  for (const TrackInfo& video : content.ladder().video()) {
    for (const TrackInfo& audio : content.ladder().audio()) {
      const auto& video_chunks = content.chunks(video.id);
      const auto& audio_chunks = content.chunks(audio.id);
      for (std::size_t i = 0; i < video_chunks.size(); ++i) {
        catalog.add(muxed_chunk_object_key(video.id, audio.id, video_chunks[i].index),
                    video_chunks[i].size_bytes + audio_chunks[i].size_bytes);
      }
    }
  }
  return catalog;
}

StorageReport compare_storage(const Content& content) {
  const ObjectCatalog demuxed = build_demuxed_catalog(content);
  const ObjectCatalog muxed = build_muxed_catalog(content);
  StorageReport report;
  report.demuxed_bytes = demuxed.total_bytes();
  report.muxed_bytes = muxed.total_bytes();
  report.demuxed_objects = demuxed.object_count();
  report.muxed_objects = muxed.object_count();
  return report;
}

}  // namespace demuxabr

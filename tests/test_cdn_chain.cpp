// The edge -> regional -> origin chain of httpsim::CdnCache: which tier
// serves a request, what each fill populates, and how the counters add up.
#include "httpsim/cdn.h"

#include <gtest/gtest.h>

#include "media/content.h"
#include "util/rng.h"

namespace demuxabr {
namespace {

using ServedBy = CdnCache::ServedBy;

class CdnChainTest : public ::testing::Test {
 protected:
  /// One request as the §1 replay serves it: look up, then fill at once.
  static ServedBy fetch(CdnCache& cdn, const std::string& key) {
    const ServedBy served_by = cdn.lookup(key);
    cdn.fill(key, served_by);
    return served_by;
  }

  Content content_ = make_drama_content();
  ObjectCatalog catalog_ = build_demuxed_catalog(content_);
  std::int64_t one_chunk_ = catalog_.size_of(chunk_object_key("V1", 0));
};

TEST_F(CdnChainTest, ColdFetchComesFromOriginAndFillsBothTiers) {
  CdnCache chain(&catalog_, CacheSpec{0, 0});
  const std::string key = chunk_object_key("V1", 0);
  EXPECT_EQ(fetch(chain, key), ServedBy::kOrigin);
  EXPECT_EQ(chain.stats().edge_objects, 1u);
  EXPECT_EQ(chain.stats().edge_used_bytes, one_chunk_);
  EXPECT_EQ(fetch(chain, key), ServedBy::kEdge);

  // The origin fetch staged the object in the regional tier too: once the
  // tiny edge evicts it, the regional tier serves it.
  CdnCache tiny(&catalog_, CacheSpec{one_chunk_ + 1, 0});
  (void)fetch(tiny, key);
  (void)fetch(tiny, chunk_object_key("V1", 1));  // evicts `key` from the edge
  EXPECT_EQ(fetch(tiny, key), ServedBy::kRegional);
}

TEST_F(CdnChainTest, RegionalServesEdgeEvictions) {
  // Tiny edge, unbounded regional: after the edge evicts, the regional
  // still has the object.
  CdnCache chain(&catalog_, CacheSpec{one_chunk_ + 1, 0});
  const std::string a = chunk_object_key("V1", 0);
  const std::string b = chunk_object_key("V1", 1);
  (void)fetch(chain, a);  // origin, fills edge+regional
  (void)fetch(chain, b);  // origin, evicts `a` from the tiny edge
  EXPECT_EQ(fetch(chain, a), ServedBy::kRegional);
  EXPECT_EQ(chain.stats().regional_hits, 1);
  // The regional hit refilled the edge.
  EXPECT_EQ(fetch(chain, a), ServedBy::kEdge);
}

TEST_F(CdnChainTest, StatsSurfaceEvictions) {
  CdnCache chain(&catalog_, CacheSpec{one_chunk_ + 1, 0});
  (void)fetch(chain, chunk_object_key("V1", 0));
  (void)fetch(chain, chunk_object_key("V1", 1));  // evicts chunk 0 from edge
  const CacheStats stats = chain.stats();
  EXPECT_EQ(stats.edge_evictions, 1u);
  EXPECT_EQ(stats.regional_evictions, 0u);
}

TEST_F(CdnChainTest, EdgeOnlyFillLeavesRegionalCold) {
  // The "edge_only" chain of BENCH_cdn.json: no regional tier, so every
  // edge miss goes back to the origin.
  const std::string key = chunk_object_key("V2", 3);
  CdnCache tiny(&catalog_, CacheSpec{catalog_.size_of(key) + 1, -1});
  EXPECT_EQ(fetch(tiny, key), ServedBy::kOrigin);
  EXPECT_EQ(fetch(tiny, key), ServedBy::kEdge);
  (void)fetch(tiny, chunk_object_key("V2", 4));  // evicts `key` from edge
  EXPECT_EQ(fetch(tiny, key), ServedBy::kOrigin);
  EXPECT_EQ(tiny.stats().regional_hits, 0);
  EXPECT_EQ(tiny.stats().regional_evictions, 0u);
}

TEST_F(CdnChainTest, UnknownKeyNotCounted) {
  CdnCache chain(&catalog_, CacheSpec{0, 0});
  EXPECT_EQ(fetch(chain, "nope"), ServedBy::kUncatalogued);
  EXPECT_EQ(chain.stats().requests, 0);
  EXPECT_EQ(chain.stats().uncacheable, 1);
}

TEST_F(CdnChainTest, StatsAddUp) {
  CdnCache chain(&catalog_, CacheSpec{0, 0});
  Rng rng(3);
  const auto& video = content_.ladder().video();
  std::int64_t requested_bytes = 0;
  for (int i = 0; i < 500; ++i) {
    const auto& track = video[static_cast<std::size_t>(rng.uniform_int(0, 5))];
    const int chunk = static_cast<int>(rng.uniform_int(0, 9));
    const std::string key = chunk_object_key(track.id, chunk);
    requested_bytes += catalog_.size_of(key);
    (void)fetch(chain, key);
  }
  const CacheStats stats = chain.stats();
  EXPECT_EQ(stats.requests, 500);
  EXPECT_EQ(stats.edge_hits + stats.regional_hits + stats.origin_fetches, 500);
  EXPECT_EQ(stats.edge_hit_bytes + stats.regional_hit_bytes + stats.origin_bytes,
            requested_bytes);
  // With unbounded caches the regional tier never gets hit (the edge holds
  // everything it ever saw), and every cold object stays resident.
  EXPECT_EQ(stats.regional_hits, 0);
  EXPECT_EQ(static_cast<std::int64_t>(stats.edge_objects), stats.origin_fetches);
  EXPECT_NEAR(stats.hit_ratio() + static_cast<double>(stats.origin_fetches) / 500.0, 1.0,
              1e-12);
}

TEST_F(CdnChainTest, DemuxedBeatsMuxedAcrossTheChain) {
  // Same viewer demand against demuxed and muxed catalogs with a bounded
  // edge: the demuxed chain pulls fewer bytes from the origin.
  const ObjectCatalog muxed = build_muxed_catalog(content_);
  const CacheSpec spec{catalog_.total_bytes() / 4, catalog_.total_bytes()};
  CdnCache demuxed_chain(&catalog_, spec);
  CdnCache muxed_chain(&muxed, spec);

  Rng rng(7);
  ZipfDistribution video_dist(content_.ladder().video_count(), 0.8);
  ZipfDistribution audio_dist(content_.ladder().audio_count(), 0.8);
  for (int user = 0; user < 60; ++user) {
    const std::string video = content_.ladder().video()[video_dist.sample(rng)].id;
    const std::string audio = content_.ladder().audio()[audio_dist.sample(rng)].id;
    for (int chunk = 0; chunk < content_.num_chunks(); ++chunk) {
      (void)fetch(demuxed_chain, chunk_object_key(video, chunk));
      (void)fetch(demuxed_chain, chunk_object_key(audio, chunk));
      (void)fetch(muxed_chain, muxed_chunk_object_key(video, audio, chunk));
    }
  }
  EXPECT_LT(demuxed_chain.stats().origin_bytes, muxed_chain.stats().origin_bytes);
}

}  // namespace
}  // namespace demuxabr

#include "src/core/context_store.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace alaya {
namespace {

std::unique_ptr<KvCache> MakeKv(const ModelConfig& m, size_t tokens, uint64_t seed) {
  auto kv = std::make_unique<KvCache>(m);
  Rng rng(seed);
  const size_t stride = m.num_kv_heads * m.head_dim;
  std::vector<float> k(stride), v(stride);
  for (uint32_t layer = 0; layer < m.num_layers; ++layer) {
    for (size_t t = 0; t < tokens; ++t) {
      rng.FillGaussian(k.data(), stride);
      rng.FillGaussian(v.data(), stride);
      kv->AppendToken(layer, k.data(), v.data());
    }
  }
  return kv;
}

std::vector<int32_t> Tokens(std::initializer_list<int32_t> l) { return l; }

TEST(ContextStoreTest, AddFindRemove) {
  ContextStore store;
  ModelConfig m = ModelConfig::Tiny();
  auto ctx = std::make_unique<Context>(0, Tokens({1, 2, 3}), MakeKv(m, 3, 1));
  const uint64_t id = store.Add(std::move(ctx));
  EXPECT_EQ(store.size(), 1u);
  ASSERT_NE(store.FindUnsafeForTest(id), nullptr);
  EXPECT_EQ(store.FindUnsafeForTest(id)->length(), 3u);
  EXPECT_EQ(store.FindUnsafeForTest(id + 100), nullptr);
  EXPECT_TRUE(store.Remove(id));
  EXPECT_FALSE(store.Remove(id));
  EXPECT_EQ(store.size(), 0u);
}

TEST(ContextStoreTest, BestPrefixMatch) {
  ContextStore store;
  ModelConfig m = ModelConfig::Tiny();
  store.Add(std::make_unique<Context>(0, Tokens({1, 2, 3, 4, 5}), MakeKv(m, 5, 2)));
  store.Add(std::make_unique<Context>(0, Tokens({1, 2, 9}), MakeKv(m, 3, 3)));

  auto match = store.BestPrefixMatch(Tokens({1, 2, 3, 7}));
  ASSERT_NE(match.context, nullptr);
  EXPECT_EQ(match.matched, 3u);
  EXPECT_EQ(match.context->length(), 5u);
  EXPECT_FALSE(match.full());

  match = store.BestPrefixMatch(Tokens({1, 2, 9, 9}));
  EXPECT_EQ(match.matched, 3u);
  EXPECT_EQ(match.context->length(), 3u);
  EXPECT_TRUE(match.full());

  match = store.BestPrefixMatch(Tokens({8, 8}));
  EXPECT_EQ(match.context, nullptr);
  EXPECT_EQ(match.matched, 0u);
}

TEST(ContextStoreTest, IdsAndTotals) {
  ContextStore store;
  ModelConfig m = ModelConfig::Tiny();
  store.Add(std::make_unique<Context>(0, Tokens({1}), MakeKv(m, 1, 4)));
  store.Add(std::make_unique<Context>(0, Tokens({2, 3}), MakeKv(m, 2, 5)));
  EXPECT_EQ(store.Ids().size(), 2u);
  EXPECT_EQ(store.TotalKvBytes(), 3u * m.KvBytesPerToken());
}

TEST(ContextTest, BuildFineIndicesSharedMapping) {
  ModelConfig m = ModelConfig::Tiny();  // 2 layers, 4 q heads, 2 kv heads.
  Context ctx(1, std::vector<int32_t>(300, 7), MakeKv(m, 300, 6));
  IndexBuildOptions opts;
  opts.share_gqa_group = true;
  IndexBuildStats stats;
  ASSERT_TRUE(ctx.BuildFineIndices(opts, nullptr, &stats).ok());
  EXPECT_TRUE(ctx.HasFineIndices());
  EXPECT_EQ(stats.num_indices, m.num_layers * m.num_kv_heads);
  // Query heads 0,1 share KV head 0's index; heads 2,3 share KV head 1's.
  EXPECT_EQ(ctx.FineIndex(0, 0), ctx.FineIndex(0, 1));
  EXPECT_EQ(ctx.FineIndex(0, 2), ctx.FineIndex(0, 3));
  EXPECT_NE(ctx.FineIndex(0, 0), ctx.FineIndex(0, 2));
  EXPECT_NE(ctx.FineIndex(0, 0), ctx.FineIndex(1, 0));
  EXPECT_GT(ctx.IndexBytes(), 0u);
}

TEST(ContextTest, BuildFineIndicesUnshared) {
  ModelConfig m = ModelConfig::Tiny();
  Context ctx(1, std::vector<int32_t>(200, 7), MakeKv(m, 200, 7));
  IndexBuildOptions opts;
  opts.share_gqa_group = false;
  ASSERT_TRUE(ctx.BuildFineIndices(opts, nullptr, nullptr).ok());
  EXPECT_NE(ctx.FineIndex(0, 0), ctx.FineIndex(0, 1));
}

TEST(ContextTest, BuildCoarseIndices) {
  ModelConfig m = ModelConfig::Tiny();
  Context ctx(1, std::vector<int32_t>(256, 7), MakeKv(m, 256, 8));
  CoarseIndexOptions copts;
  copts.block_size = 32;
  ASSERT_TRUE(ctx.BuildCoarseIndices(copts).ok());
  EXPECT_TRUE(ctx.HasCoarseIndices());
  const CoarseIndex* c = ctx.CoarseIdx(1, 1);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->num_blocks(), 8u);
  EXPECT_EQ(ctx.CoarseIdx(0, 0)->size(), 256u);
}

TEST(ContextTest, MissingIndicesReturnNull) {
  ModelConfig m = ModelConfig::Tiny();
  Context ctx(1, Tokens({1, 2}), MakeKv(m, 2, 9));
  EXPECT_EQ(ctx.FineIndex(0, 0), nullptr);
  EXPECT_EQ(ctx.CoarseIdx(0, 0), nullptr);
}

// --- Pending-context lifecycle: a reserved id is invisible to every lookup
// --- until the fully-built context is published (background Store).

TEST(ContextStoreTest, PendingIdInvisibleUntilPublished) {
  ContextStore store;
  ModelConfig m = ModelConfig::Tiny();
  const std::vector<int32_t> tokens = {5, 6, 7};

  const uint64_t id = store.ReservePending();
  EXPECT_EQ(store.pending(), 1u);
  // Nothing observable yet: not by id, not by prefix, not in totals.
  EXPECT_EQ(store.FindUnsafeForTest(id), nullptr);
  EXPECT_EQ(store.FindShared(id), nullptr);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.Ids().empty());
  EXPECT_EQ(store.BestPrefixMatch(tokens).context, nullptr);
  EXPECT_EQ(store.TotalKvBytes(), 0u);
  EXPECT_FALSE(store.Remove(id));  // Pending ids are not removable contexts.

  ASSERT_TRUE(
      store.Publish(id, std::make_unique<Context>(0, tokens, MakeKv(m, 3, 10))).ok());
  EXPECT_EQ(store.pending(), 0u);
  ASSERT_NE(store.FindUnsafeForTest(id), nullptr);
  EXPECT_EQ(store.FindUnsafeForTest(id)->id(), id);
  EXPECT_EQ(store.BestPrefixMatch(tokens).matched, 3u);
}

TEST(ContextStoreTest, ReservedIdsNeverCollideWithAdds) {
  ContextStore store;
  ModelConfig m = ModelConfig::Tiny();
  const uint64_t pending_id = store.ReservePending();
  const uint64_t added_id =
      store.Add(std::make_unique<Context>(0, Tokens({1}), MakeKv(m, 1, 11)));
  EXPECT_NE(pending_id, added_id);
  ASSERT_TRUE(
      store.Publish(pending_id, std::make_unique<Context>(0, Tokens({2}), MakeKv(m, 1, 12)))
          .ok());
  EXPECT_EQ(store.size(), 2u);
}

TEST(ContextStoreTest, PresetIdCollidingWithPendingIsReassigned) {
  // The serializer-restore path Adds contexts with preserved ids; one that
  // collides with an in-flight reservation must not be overwritten by the
  // later Publish — the store reassigns it instead.
  ContextStore store;
  ModelConfig m = ModelConfig::Tiny();
  const uint64_t pending_id = store.ReservePending();
  const uint64_t got =
      store.Add(std::make_unique<Context>(pending_id, Tokens({9}), MakeKv(m, 1, 14)));
  EXPECT_NE(got, pending_id);
  ASSERT_TRUE(
      store.Publish(pending_id, std::make_unique<Context>(0, Tokens({8}), MakeKv(m, 1, 15)))
          .ok());
  EXPECT_EQ(store.FindUnsafeForTest(pending_id)->tokens(), Tokens({8}));
  EXPECT_EQ(store.FindUnsafeForTest(got)->tokens(), Tokens({9}));
  EXPECT_EQ(store.size(), 2u);
}

TEST(ContextStoreTest, AbortPendingDropsReservation) {
  ContextStore store;
  ModelConfig m = ModelConfig::Tiny();
  const uint64_t id = store.ReservePending();
  EXPECT_TRUE(store.AbortPending(id));
  EXPECT_FALSE(store.AbortPending(id));
  EXPECT_EQ(store.pending(), 0u);
  // Publishing an aborted (or never-reserved) id is refused.
  EXPECT_EQ(store.Publish(id, std::make_unique<Context>(0, Tokens({3}), MakeKv(m, 1, 13)))
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(store.size(), 0u);
}

// --- Prefix-index (token trie) coherence: every path that changes context
// --- visibility must keep the trie in lockstep, or prefix lookups would
// --- return ghosts / miss live contexts.

TEST(ContextStoreTest, PrefixIndexStaysCoherentThroughAddRemove) {
  ContextStore store;
  ModelConfig m = ModelConfig::Tiny();
  const uint64_t a =
      store.Add(std::make_unique<Context>(0, Tokens({1, 2, 3, 4}), MakeKv(m, 4, 20)));
  const uint64_t b =
      store.Add(std::make_unique<Context>(0, Tokens({1, 2, 7}), MakeKv(m, 3, 21)));
  EXPECT_GT(store.PrefixIndexNodes(), 0u);

  // b wins past the shared stem...
  EXPECT_EQ(store.BestPrefixMatch(Tokens({1, 2, 7, 9})).context->id(), b);
  // ...and stops winning the moment it is removed: the longest survivor takes
  // over at its own (shorter) depth instead of a stale full-depth hit.
  EXPECT_TRUE(store.Remove(b));
  auto match = store.BestPrefixMatch(Tokens({1, 2, 7, 9}));
  ASSERT_NE(match.context, nullptr);
  EXPECT_EQ(match.context->id(), a);
  EXPECT_EQ(match.matched, 2u);

  EXPECT_TRUE(store.Remove(a));
  EXPECT_EQ(store.BestPrefixMatch(Tokens({1, 2, 3, 4})).context, nullptr);
  EXPECT_EQ(store.PrefixIndexNodes(), 0u);  // Fully pruned, nothing leaks.
}

TEST(ContextStoreTest, PrefixIndexSeesPublishButNeverPending) {
  ContextStore store;
  ModelConfig m = ModelConfig::Tiny();
  const std::vector<int32_t> tokens = {6, 6, 6};
  const uint64_t id = store.ReservePending();
  // Reservation alone indexes nothing (probed via the unpinned probe the
  // admission path uses, which shares the trie walk).
  EXPECT_EQ(store.BestPrefixProbe(tokens).matched, 0u);
  ASSERT_TRUE(
      store.Publish(id, std::make_unique<Context>(0, tokens, MakeKv(m, 3, 22))).ok());
  EXPECT_EQ(store.BestPrefixProbe(tokens).matched, 3u);
  EXPECT_EQ(store.BestPrefixMatch(tokens).context->id(), id);
  // An aborted reservation never touched the index.
  const uint64_t dead = store.ReservePending();
  EXPECT_TRUE(store.AbortPending(dead));
  EXPECT_EQ(store.BestPrefixProbe(tokens).matched, 3u);
}

TEST(ContextStoreTest, PrefixProbeAgreesWithFullMatch) {
  ContextStore store;
  ModelConfig m = ModelConfig::Tiny();
  store.Add(std::make_unique<Context>(0, Tokens({5, 4, 3, 2, 1}), MakeKv(m, 5, 23)));
  store.Add(std::make_unique<Context>(0, Tokens({5, 4, 9}), MakeKv(m, 3, 24)));
  for (const auto& query :
       {Tokens({5, 4, 3}), Tokens({5, 4, 9, 9}), Tokens({5}), Tokens({2}), Tokens({})}) {
    const ContextStore::PrefixProbe probe = store.BestPrefixProbe(query);
    const ContextStore::PrefixMatch match = store.BestPrefixMatch(query);
    EXPECT_EQ(probe.matched, match.matched);
    EXPECT_EQ(probe.context_id, match.id);
  }
}

// --- Incremental byte accounting: TotalKvBytes/TotalIndexBytes are now O(1)
// --- counters; every mutation path must keep them equal to a full scan.

void ExpectTotalsMatchScan(const ContextStore& store) {
  uint64_t kv = 0, index = 0;
  for (uint64_t id : store.Ids()) {
    if (std::shared_ptr<Context> ctx = store.FindShared(id)) {
      kv += ctx->kv().DeployedBytes();
      index += ctx->IndexBytes();
    }
  }
  EXPECT_EQ(store.TotalKvBytes(), kv);
  EXPECT_EQ(store.TotalIndexBytes(), index);
}

TEST(ContextStoreTest, ByteCountersMatchFullScanAcrossMutations) {
  ContextStore store;
  ModelConfig m = ModelConfig::Tiny();
  ExpectTotalsMatchScan(store);  // Empty.

  const uint64_t a =
      store.Add(std::make_unique<Context>(0, Tokens({1, 2, 3}), MakeKv(m, 3, 30)));
  ExpectTotalsMatchScan(store);

  // Publish path (late materialization) with fine indices built.
  const uint64_t pending = store.ReservePending();
  auto ctx = std::make_unique<Context>(0, std::vector<int32_t>(200, 4), MakeKv(m, 200, 31));
  ASSERT_TRUE(ctx->BuildFineIndices(IndexBuildOptions{}, nullptr, nullptr).ok());
  ASSERT_TRUE(store.Publish(pending, std::move(ctx)).ok());
  ExpectTotalsMatchScan(store);
  EXPECT_GT(store.TotalIndexBytes(), 0u);

  // Preset-id displacement: re-Adding id `a` replaces the old entry; the old
  // bytes must leave the counters.
  store.Add(std::make_unique<Context>(a, Tokens({7, 7}), MakeKv(m, 2, 32)));
  ExpectTotalsMatchScan(store);

  // Spill removes bytes from the totals but keeps the entry alive.
  auto detached = store.DetachForSpill(pending);
  ASSERT_NE(detached, nullptr);
  ExpectTotalsMatchScan(store);
  EXPECT_TRUE(store.IsSpilled(pending));

  // Restore puts them back.
  ASSERT_TRUE(store.RestoreSpilled(pending, std::move(detached)).ok());
  ExpectTotalsMatchScan(store);
  EXPECT_FALSE(store.IsSpilled(pending));

  EXPECT_TRUE(store.Remove(a));
  ExpectTotalsMatchScan(store);
  EXPECT_TRUE(store.Remove(pending));
  ExpectTotalsMatchScan(store);
  EXPECT_EQ(store.TotalKvBytes(), 0u);
  EXPECT_EQ(store.TotalIndexBytes(), 0u);
}

// --- Spill placeholders: a spilled context stays prefix-matchable (so the
// --- admission path can schedule a page-in) but is invisible to Find.

TEST(ContextStoreTest, SpilledPlaceholderSemantics) {
  ContextStore store;
  ModelConfig m = ModelConfig::Tiny();
  const std::vector<int32_t> tokens = {1, 2, 3, 4, 5};
  const uint64_t id = store.Add(std::make_unique<Context>(0, tokens, MakeKv(m, 5, 40)));

  auto detached = store.DetachForSpill(id);
  ASSERT_NE(detached, nullptr);
  EXPECT_TRUE(store.IsSpilled(id));
  EXPECT_EQ(store.size(), 1u);  // Still counted: the id is live.
  EXPECT_EQ(store.resident(), 0u);
  EXPECT_EQ(store.spilled(), 1u);
  ASSERT_EQ(store.SpilledIds().size(), 1u);
  EXPECT_EQ(store.SpilledIds()[0], id);
  EXPECT_EQ(store.FindShared(id), nullptr);  // Payload gone...

  // ...but the prefix index still resolves to it, flagged spilled.
  auto match = store.BestPrefixMatch(Tokens({1, 2, 3, 9}));
  EXPECT_EQ(match.context, nullptr);
  EXPECT_EQ(match.ref, nullptr);
  EXPECT_TRUE(match.spilled);
  EXPECT_EQ(match.id, id);
  EXPECT_EQ(match.matched, 3u);
  EXPECT_EQ(match.length, 5u);
  auto probe = store.BestPrefixProbe(tokens);
  EXPECT_TRUE(probe.spilled);
  EXPECT_EQ(probe.context_id, id);
  EXPECT_EQ(probe.matched, 5u);

  // Double-detach is a no-op; restore with wrong tokens is refused.
  EXPECT_EQ(store.DetachForSpill(id), nullptr);
  auto wrong = std::make_shared<Context>(0, Tokens({9, 9}), MakeKv(m, 2, 41));
  EXPECT_EQ(store.RestoreSpilled(id, wrong).code(), StatusCode::kInvalidArgument);

  ASSERT_TRUE(store.RestoreSpilled(id, std::move(detached)).ok());
  EXPECT_FALSE(store.IsSpilled(id));
  EXPECT_EQ(store.resident(), 1u);
  match = store.BestPrefixMatch(tokens);
  ASSERT_NE(match.context, nullptr);
  EXPECT_EQ(match.context->id(), id);
  EXPECT_FALSE(match.spilled);
  // Restoring a resident context is refused.
  auto dup = std::make_shared<Context>(0, tokens, MakeKv(m, 5, 42));
  EXPECT_EQ(store.RestoreSpilled(id, dup).code(), StatusCode::kAborted);
}

TEST(ContextStoreTest, AddSpilledWarmStartPlaceholders) {
  ContextStore store;
  ModelConfig m = ModelConfig::Tiny();
  // Warm start installs placeholders with preserved ids, ahead of any Add.
  ASSERT_TRUE(store.AddSpilled(42, Tokens({3, 1, 4}), /*resident_device=*/1,
                               /*kv_bytes=*/1000, /*index_bytes=*/500)
                  .ok());
  EXPECT_TRUE(store.IsSpilled(42));
  EXPECT_EQ(store.TotalKvBytes(), 0u);  // Spilled bytes are not resident.
  auto probe = store.BestPrefixProbe(Tokens({3, 1, 4}));
  EXPECT_TRUE(probe.spilled);
  EXPECT_EQ(probe.context_id, 42u);
  EXPECT_EQ(probe.device, 1);  // Snapshot from the manifest.

  // Id collisions and id 0 are refused.
  EXPECT_EQ(store.AddSpilled(42, Tokens({5}), -1, 1, 1).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(store.AddSpilled(0, Tokens({5}), -1, 1, 1).code(),
            StatusCode::kInvalidArgument);

  // Fresh Adds never collide with the warm-started id.
  const uint64_t next =
      store.Add(std::make_unique<Context>(0, Tokens({8}), MakeKv(m, 1, 43)));
  EXPECT_GT(next, 42u);

  // A spilled placeholder is removable (e.g. manifest eviction).
  EXPECT_TRUE(store.Remove(42));
  EXPECT_EQ(store.BestPrefixProbe(Tokens({3, 1, 4})).matched, 0u);
}

}  // namespace
}  // namespace alaya

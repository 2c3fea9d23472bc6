#include "src/index/roargraph.h"

#include <gtest/gtest.h>

#include "src/index/graph_search.h"
#include "tests/test_util.h"

namespace alaya {
namespace {

using testutil::BruteTopK;
using testutil::ExpectGraphsIdentical;
using testutil::MakeTrainingQueries;
using testutil::PlantedMips;

TEST(RoarGraphTest, BuildsAndIsFullyReachable) {
  PlantedMips data(2000, 32, 50, 1);
  RoarGraph graph(data.keys.View(), RoarGraphOptions{});
  VectorSet training = MakeTrainingQueries(data, 400, 2);
  ASSERT_TRUE(graph.BuildFromQueries(training.View()).ok());
  EXPECT_TRUE(graph.built());
  EXPECT_DOUBLE_EQ(graph.ReachableFraction(), 1.0);
  EXPECT_EQ(graph.size(), 2000u);
  EXPECT_GT(graph.MemoryBytes(), 0u);
  EXPECT_EQ(graph.index_class(), IndexClass::kFine);
}

TEST(RoarGraphTest, DegreeBounded) {
  PlantedMips data(1000, 16, 30, 3);
  RoarGraphOptions opts;
  opts.max_degree = 12;
  RoarGraph graph(data.keys.View(), opts);
  VectorSet training = MakeTrainingQueries(data, 300, 4);
  ASSERT_TRUE(graph.BuildFromQueries(training.View()).ok());
  for (uint32_t u = 0; u < graph.graph().size(); ++u) {
    EXPECT_LE(graph.graph().degree(u), 12u);
  }
}

TEST(RoarGraphTest, TopKRecallOnPlantedData) {
  PlantedMips data(4000, 32, 100, 5);
  RoarGraph graph(data.keys.View(), RoarGraphOptions{});
  VectorSet training = MakeTrainingQueries(data, 800, 6);
  ASSERT_TRUE(graph.BuildFromQueries(training.View()).ok());

  SearchResult res;
  TopKParams params{50, 128};
  ASSERT_TRUE(graph.SearchTopK(data.query.data(), params, IdFilter{}, &res).ok());
  ASSERT_EQ(res.hits.size(), 50u);
  auto exact = BruteTopK(data.keys.View(), data.query.data(), 50);
  std::vector<bool> got(4000, false);
  for (const auto& h : res.hits) got[h.id] = true;
  size_t inter = 0;
  for (const auto& e : exact) {
    if (got[e.id]) ++inter;
  }
  EXPECT_GE(inter, 45u);  // >= 90% recall@50.
}

TEST(RoarGraphTest, TopKTruncatesTheBeam) {
  PlantedMips data(1000, 16, 60, 15);
  RoarGraph graph(data.keys.View(), RoarGraphOptions{});
  VectorSet training = MakeTrainingQueries(data, 300, 16);
  ASSERT_TRUE(graph.BuildFromQueries(training.View()).ok());
  SearchResult res;
  ASSERT_TRUE(graph.SearchTopK(data.query.data(), TopKParams{3, 10}, IdFilter{}, &res).ok());
  EXPECT_EQ(res.hits.size(), 3u);
  // The k hits are the head of the ef-wide beam.
  SearchResult beam = GraphBeamSearch(graph.graph(), graph.vectors(),
                                      graph.entry_point(), data.query.data(), 10);
  for (size_t i = 0; i < res.hits.size(); ++i) EXPECT_EQ(res.hits[i].id, beam.hits[i].id);
}

TEST(RoarGraphTest, SearchBeforeBuildFails) {
  PlantedMips data(100, 16, 10, 7);
  RoarGraph graph(data.keys.View(), RoarGraphOptions{});
  SearchResult res;
  EXPECT_EQ(graph.SearchTopK(data.query.data(), TopKParams{5, 0}, IdFilter{}, &res).code(),
            StatusCode::kFailedPrecondition);
  DiprParams dp;
  EXPECT_EQ(graph.SearchDipr(data.query.data(), dp, IdFilter{}, &res).code(),
            StatusCode::kFailedPrecondition);
}

TEST(RoarGraphTest, DimensionMismatchRejected) {
  PlantedMips data(100, 16, 10, 9);
  RoarGraph graph(data.keys.View(), RoarGraphOptions{});
  VectorSet wrong(8);
  std::vector<float> v(8, 1.f);
  wrong.Append(v.data());
  EXPECT_TRUE(graph.BuildFromQueries(wrong.View()).IsInvalidArgument());
}

TEST(RoarGraphTest, EmptyKeysRejected) {
  VectorSet empty(16);
  RoarGraph graph(empty.View(), RoarGraphOptions{});
  VectorSet training(16);
  std::vector<float> v(16, 1.f);
  training.Append(v.data());
  EXPECT_TRUE(graph.BuildFromQueries(training.View()).IsInvalidArgument());
}

TEST(RoarGraphTest, EntryPointIsMaxNormKey) {
  VectorSet keys(8);
  Rng rng(10);
  std::vector<float> v(8);
  for (int i = 0; i < 50; ++i) {
    rng.FillGaussian(v.data(), 8);
    NormalizeInPlace(v.data(), 8);
    keys.Append(v.data());
  }
  std::vector<float> big(8, 3.f);  // Norm ~8.5, clearly the max.
  keys.Append(big.data());
  RoarGraph graph(keys.View(), RoarGraphOptions{});
  VectorSet training(8);
  for (int i = 0; i < 20; ++i) {
    rng.FillGaussian(v.data(), 8);
    training.Append(v.data());
  }
  ASSERT_TRUE(graph.BuildFromQueries(training.View()).ok());
  EXPECT_EQ(graph.entry_point(), 50u);
}

TEST(RoarGraphTest, FilteredTopKRespectsPredicate) {
  PlantedMips data(1000, 16, 60, 11);
  RoarGraph graph(data.keys.View(), RoarGraphOptions{});
  VectorSet training = MakeTrainingQueries(data, 300, 12);
  ASSERT_TRUE(graph.BuildFromQueries(training.View()).ok());
  IdFilter filter;
  filter.prefix_len = 500;
  SearchResult res;
  ASSERT_TRUE(graph.SearchTopK(data.query.data(), TopKParams{20, 64}, filter, &res).ok());
  for (const auto& h : res.hits) EXPECT_LT(h.id, 500u);
}

TEST(RoarGraphTest, SequentialBuildMatchesParallelStructureQuality) {
  PlantedMips data(1500, 16, 60, 13);
  VectorSet training = MakeTrainingQueries(data, 400, 14);

  RoarGraphOptions seq_opts;
  seq_opts.sequential = true;
  RoarGraph seq(data.keys.View(), seq_opts);
  ASSERT_TRUE(seq.BuildFromQueries(training.View()).ok());

  RoarGraph par(data.keys.View(), RoarGraphOptions{});
  ASSERT_TRUE(par.BuildFromQueries(training.View()).ok());

  // Both graphs should recall the planted set under DIPRS.
  DiprParams params;
  params.beta = 11.f;
  SearchResult a, b;
  ASSERT_TRUE(seq.SearchDipr(data.query.data(), params, IdFilter{}, &a).ok());
  ASSERT_TRUE(par.SearchDipr(data.query.data(), params, IdFilter{}, &b).ok());
  EXPECT_GE(data.Recall(a.hits), 0.8);
  EXPECT_GE(data.Recall(b.hits), 0.8);
  // The parallel stages (kNN per query, pruning per node) write disjoint
  // slots, so the graphs are not merely as good: they are the same graph.
  ExpectGraphsIdentical(seq, par);
}

// --- ExtendFromBase: the index-sharing path DB.Store takes when a session
// --- extends a stored context (prefix graphs adopted, suffix inserted).

TEST(RoarGraphTest, ExtendWithEmptySuffixIsBitIdenticalToBase) {
  PlantedMips data(800, 16, 40, 21);
  RoarGraph base(data.keys.View(), RoarGraphOptions{});
  VectorSet training = MakeTrainingQueries(data, 200, 22);
  ASSERT_TRUE(base.BuildFromQueries(training.View()).ok());

  RoarGraph extended(data.keys.View(), RoarGraphOptions{});
  ASSERT_TRUE(extended.ExtendFromBase(base, 800).ok());
  EXPECT_TRUE(extended.built());
  ExpectGraphsIdentical(base, extended);
}

TEST(RoarGraphTest, ExtendIsDeterministic) {
  PlantedMips data(1200, 16, 60, 23);
  VectorSet training = MakeTrainingQueries(data, 300, 24);
  VectorSetView prefix_keys{data.keys.View().data, 900, 16};
  RoarGraph base(prefix_keys, RoarGraphOptions{});
  ASSERT_TRUE(base.BuildFromQueries(training.View()).ok());

  RoarGraph a(data.keys.View(), RoarGraphOptions{});
  RoarGraph b(data.keys.View(), RoarGraphOptions{});
  ASSERT_TRUE(a.ExtendFromBase(base, 900).ok());
  ASSERT_TRUE(b.ExtendFromBase(base, 900).ok());
  ExpectGraphsIdentical(a, b);
}

TEST(RoarGraphTest, ExtendInsertsSuffixAndStaysFullyReachable) {
  constexpr size_t kPrefix = 1000, kTotal = 1400;
  PlantedMips data(kTotal, 16, 80, 25);
  VectorSet training = MakeTrainingQueries(data, 300, 26);
  VectorSetView prefix_keys{data.keys.View().data, kPrefix, 16};
  RoarGraph base(prefix_keys, RoarGraphOptions{});
  ASSERT_TRUE(base.BuildFromQueries(training.View()).ok());

  RoarGraph extended(data.keys.View(), RoarGraphOptions{});
  ASSERT_TRUE(extended.ExtendFromBase(base, kPrefix).ok());
  EXPECT_EQ(extended.size(), kTotal);
  // Every node — adopted prefix and inserted suffix alike — is reachable.
  EXPECT_DOUBLE_EQ(extended.ReachableFraction(), 1.0);
  // Suffix nodes got real out-edges from insertion, not just repair edges.
  size_t suffix_edges = 0;
  for (uint32_t u = kPrefix; u < kTotal; ++u) {
    suffix_edges += extended.graph().degree(u);
  }
  EXPECT_GT(suffix_edges, (kTotal - kPrefix));  // > 1 edge/node on average.
}

TEST(RoarGraphTest, ExtendedSearchMatchesScratchOnSharedPrefix) {
  // The shared-prefix guarantee: retrieval over an extended graph finds the
  // planted critical set (which lives in the prefix by construction) just as
  // a from-scratch build over the full key set does.
  constexpr size_t kPrefix = 1500, kTotal = 1900;
  PlantedMips data(kTotal, 16, 80, 27);
  // Plant every critical id inside the prefix so prefix retrieval is the test.
  PlantedMips prefix_data(kPrefix, 16, 80, 27);
  VectorSet training = MakeTrainingQueries(prefix_data, 400, 28);

  RoarGraph base(prefix_data.keys.View(), RoarGraphOptions{});
  ASSERT_TRUE(base.BuildFromQueries(training.View()).ok());

  // New key set = prefix keys + background suffix (reuse data's tail rows).
  VectorSet full(16);
  full.AppendBatch(prefix_data.keys.View().data, kPrefix);
  full.AppendBatch(data.keys.View().Vec(kPrefix), kTotal - kPrefix);

  RoarGraph extended(full.View(), RoarGraphOptions{});
  ASSERT_TRUE(extended.ExtendFromBase(base, kPrefix).ok());
  RoarGraph scratch(full.View(), RoarGraphOptions{});
  ASSERT_TRUE(scratch.BuildFromQueries(training.View()).ok());

  // Recall of the prefix-planted critical set. Hits may carry suffix ids
  // (>= kPrefix, background by construction); only prefix ids can score.
  auto prefix_recall = [&](const SearchResult& res) {
    std::vector<bool> found(kPrefix, false);
    for (const auto& h : res.hits) {
      if (h.id < kPrefix) found[h.id] = true;
    }
    size_t hit = 0;
    for (uint32_t id : prefix_data.critical) hit += found[id] ? 1 : 0;
    return static_cast<double>(hit) /
           static_cast<double>(prefix_data.critical.size());
  };

  DiprParams params;
  params.beta = 11.f;
  SearchResult ext_res, scr_res, base_res;
  ASSERT_TRUE(extended.SearchDipr(prefix_data.query.data(), params, IdFilter{}, &ext_res).ok());
  ASSERT_TRUE(scratch.SearchDipr(prefix_data.query.data(), params, IdFilter{}, &scr_res).ok());
  ASSERT_TRUE(base.SearchDipr(prefix_data.query.data(), params, IdFilter{}, &base_res).ok());
  const double ext_recall = prefix_recall(ext_res);
  const double scr_recall = prefix_recall(scr_res);
  EXPECT_GE(ext_recall, 0.8);
  EXPECT_GE(ext_recall, scr_recall - 0.1);  // No quality cliff vs rebuild.
  EXPECT_GE(ext_recall, prefix_recall(base_res) - 0.05);
}

TEST(RoarGraphTest, ExtendValidatesBase) {
  PlantedMips data(200, 16, 10, 29);
  VectorSet training = MakeTrainingQueries(data, 60, 30);
  VectorSetView prefix_keys{data.keys.View().data, 100, 16};

  RoarGraph unbuilt(prefix_keys, RoarGraphOptions{});
  RoarGraph target(data.keys.View(), RoarGraphOptions{});
  EXPECT_EQ(target.ExtendFromBase(unbuilt, 100).code(),
            StatusCode::kFailedPrecondition);

  RoarGraph base(prefix_keys, RoarGraphOptions{});
  ASSERT_TRUE(base.BuildFromQueries(training.View()).ok());
  // base.size() must cover base_count (a LARGER base is the partial-prefix
  // case, tested below; a smaller one cannot seed the prefix).
  EXPECT_TRUE(target.ExtendFromBase(base, 150).IsInvalidArgument());
  EXPECT_TRUE(target.ExtendFromBase(base, 0).IsInvalidArgument());
  EXPECT_TRUE(
      RoarGraph(prefix_keys, RoarGraphOptions{}).ExtendFromBase(base, 101).IsInvalidArgument());
}

TEST(RoarGraphTest, ExtendFromPartialPrefixDropsOutOfPrefixEdges) {
  // Partial reuse: the base graph covers MORE keys than the shared prefix.
  // Extension must adopt only the in-prefix adjacency — never an edge to a
  // base node that is not one of our tokens — and still insert the suffix.
  constexpr size_t kBaseTotal = 900, kShared = 600, kTotal = 1000;
  PlantedMips data(kBaseTotal, 16, 40, 31);
  VectorSet training = MakeTrainingQueries(data, 250, 32);
  RoarGraph base(data.keys.View(), RoarGraphOptions{});
  ASSERT_TRUE(base.BuildFromQueries(training.View()).ok());

  // New key set: the shared prefix plus a fresh suffix (planted elsewhere).
  PlantedMips other(kTotal, 16, 40, 33);
  VectorSet full(16);
  full.AppendBatch(data.keys.View().data, kShared);
  full.AppendBatch(other.keys.View().Vec(kShared), kTotal - kShared);

  RoarGraph extended(full.View(), RoarGraphOptions{});
  ASSERT_TRUE(extended.ExtendFromBase(base, kShared).ok());
  EXPECT_TRUE(extended.built());

  // Node counts: the graph covers exactly the new key set, no base suffix
  // nodes leaked in.
  ASSERT_EQ(extended.size(), kTotal);
  ASSERT_EQ(extended.graph().size(), kTotal);

  // Every adopted prefix edge is a subset of the base's (minus out-of-prefix
  // targets) plus whatever reverse/repair edges insertion added — but no edge
  // anywhere may target a node id outside [0, kTotal).
  size_t dropped_witness = 0;
  for (uint32_t u = 0; u < kShared; ++u) {
    for (uint32_t v : base.graph().Neighbors(u)) {
      if (v >= kShared) ++dropped_witness;  // Base had out-of-prefix edges.
    }
  }
  EXPECT_GT(dropped_witness, 0u);  // The test exercises actual truncation.
  for (uint32_t u = 0; u < kTotal; ++u) {
    for (uint32_t v : extended.graph().Neighbors(u)) {
      ASSERT_LT(v, kTotal) << "edge to non-existent node from " << u;
    }
  }
  // Truncation may orphan prefix nodes; the connectivity pass must repair.
  EXPECT_DOUBLE_EQ(extended.ReachableFraction(), 1.0);
  // The entry is a live node of the new graph.
  EXPECT_LT(extended.entry_point(), kTotal);
}

}  // namespace
}  // namespace alaya

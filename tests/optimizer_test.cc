#include "src/query/optimizer.h"

#include <gtest/gtest.h>

namespace alaya {
namespace {

QueryContext LongContext() {
  QueryContext ctx;
  ctx.context_length = 100000;
  ctx.gpu_budget_bytes = 0;
  ctx.layer_id = 5;
  return ctx;
}

TEST(OptimizerTest, ShortContextUsesFullAttention) {
  RuleBasedOptimizer opt;
  QueryContext ctx;
  ctx.context_length = 1000;
  QueryPlan plan = opt.Plan(ctx);
  EXPECT_EQ(plan.query, QueryClass::kFullAttention);
  EXPECT_FALSE(plan.filter.enabled());
}

TEST(OptimizerTest, ThresholdBoundaryIsInclusive) {
  OptimizerOptions oo;
  oo.short_context_threshold = 4096;
  RuleBasedOptimizer opt(oo);
  QueryContext ctx;
  ctx.context_length = 4096;
  EXPECT_EQ(opt.Plan(ctx).query, QueryClass::kFullAttention);
  ctx.context_length = 4097;
  EXPECT_NE(opt.Plan(ctx).query, QueryClass::kFullAttention);
}

TEST(OptimizerTest, HighBudgetPicksCoarseTopK) {
  RuleBasedOptimizer opt;
  QueryContext ctx = LongContext();
  ctx.gpu_budget_bytes = 1ull << 40;  // Plenty.
  QueryPlan plan = opt.Plan(ctx);
  EXPECT_EQ(plan.query, QueryClass::kTopK);
  EXPECT_EQ(plan.index, IndexClass::kCoarse);
}

TEST(OptimizerTest, BudgetBoundaryUsesCoarseBytesPerToken) {
  OptimizerOptions oo;
  oo.coarse_bytes_per_token = 512;
  RuleBasedOptimizer opt(oo);
  QueryContext ctx = LongContext();
  ctx.context_length = 10000;
  ctx.gpu_budget_bytes = 512ull * 10000;
  EXPECT_EQ(opt.Plan(ctx).index, IndexClass::kCoarse);
  ctx.gpu_budget_bytes -= 1;
  EXPECT_NE(opt.Plan(ctx).index, IndexClass::kCoarse);
}

TEST(OptimizerTest, TightBudgetLayerZeroUsesFlatDipr) {
  RuleBasedOptimizer opt;
  QueryContext ctx = LongContext();
  ctx.layer_id = 0;
  QueryPlan plan = opt.Plan(ctx);
  EXPECT_EQ(plan.query, QueryClass::kDipr);
  EXPECT_EQ(plan.index, IndexClass::kFlat);
}

TEST(OptimizerTest, TightBudgetDeepLayersUseFineDipr) {
  RuleBasedOptimizer opt;
  for (int layer : {1, 2, 15, 31}) {
    QueryContext ctx = LongContext();
    ctx.layer_id = layer;
    QueryPlan plan = opt.Plan(ctx);
    EXPECT_EQ(plan.query, QueryClass::kDipr) << "layer " << layer;
    EXPECT_EQ(plan.index, IndexClass::kFine) << "layer " << layer;
  }
}

TEST(OptimizerTest, PartialReuseAddsFilter) {
  RuleBasedOptimizer opt;
  QueryContext ctx = LongContext();
  ctx.partial_reuse = true;
  ctx.reused_prefix_len = 40000;
  QueryPlan plan = opt.Plan(ctx);
  EXPECT_TRUE(plan.filter.enabled());
  EXPECT_EQ(plan.filter.prefix_len, 40000u);
  // Filter composes with both branches.
  ctx.gpu_budget_bytes = 1ull << 40;
  plan = opt.Plan(ctx);
  EXPECT_TRUE(plan.filter.enabled());
  EXPECT_EQ(plan.index, IndexClass::kCoarse);
}

TEST(OptimizerTest, ShortContextIgnoresPartialReuseFilter) {
  RuleBasedOptimizer opt;
  QueryContext ctx;
  ctx.context_length = 100;
  ctx.partial_reuse = true;
  ctx.reused_prefix_len = 50;
  QueryPlan plan = opt.Plan(ctx);
  EXPECT_EQ(plan.query, QueryClass::kFullAttention);
}

TEST(OptimizerTest, ExplainStrings) {
  RuleBasedOptimizer opt;
  QueryContext ctx;
  ctx.context_length = 10;
  EXPECT_EQ(opt.Plan(ctx).Explain(), "full_attention");
  ctx = LongContext();
  ctx.layer_id = 3;
  EXPECT_NE(opt.Plan(ctx).Explain().find("dipr"), std::string::npos);
  EXPECT_NE(opt.Plan(ctx).Explain().find("fine"), std::string::npos);
  ctx.partial_reuse = true;
  ctx.reused_prefix_len = 7;
  EXPECT_NE(opt.Plan(ctx).Explain().find("attribute_filter"), std::string::npos);
}

TEST(QueryTypesTest, Names) {
  EXPECT_STREQ(QueryClassName(QueryClass::kTopK), "topk");
  EXPECT_STREQ(QueryClassName(QueryClass::kDipr), "dipr");
  EXPECT_STREQ(QueryClassName(QueryClass::kFullAttention), "full_attention");
  EXPECT_STREQ(IndexClassName(IndexClass::kCoarse), "coarse");
}

}  // namespace
}  // namespace alaya

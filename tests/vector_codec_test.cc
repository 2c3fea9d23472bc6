// Codec round-trip error bounds, scalar-vs-dispatched kernel equivalence
// (including dims that are not a multiple of any SIMD width), and the
// decode-free int8 scoring identity.
#include "src/common/vector_codec.h"

#include <cmath>
#include <random>
#include <vector>

#include "gtest/gtest.h"

namespace alaya {
namespace {

std::vector<float> RandomVec(size_t n, uint32_t seed, float scale = 1.f) {
  std::mt19937 rng(seed);
  std::normal_distribution<float> nd(0.f, scale);
  std::vector<float> v(n);
  for (auto& x : v) x = nd(rng);
  return v;
}

// Dims straddling every kernel boundary: scalar tails, one partial SIMD lane,
// exact multiples of 4/8/16, and odd primes.
const size_t kDims[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 13, 15, 16, 17, 31, 32, 64, 67, 128};

TEST(Fp16Test, RoundTripsHalfValuesExactly) {
  // float -> half is lossy, but half -> float -> half must be the identity
  // for every finite half (the fp16 spill round-trip invariant).
  for (uint32_t h = 0; h < 65536; ++h) {
    const float f = Fp16ToFloat(static_cast<uint16_t>(h));
    if (std::isnan(f)) continue;  // NaN payloads may canonicalize.
    if (std::isinf(f)) {
      EXPECT_EQ(Fp16FromFloat(f), static_cast<uint16_t>(h));
      continue;
    }
    EXPECT_EQ(Fp16FromFloat(f), static_cast<uint16_t>(h)) << "h=" << h;
  }
}

TEST(Fp16Test, EncodeRelativeErrorBound) {
  // binary16 has a 10-bit mantissa: RNE keeps normals within 2^-11 relative.
  const auto v = RandomVec(4096, 11, 3.f);
  for (float x : v) {
    const float back = Fp16ToFloat(Fp16FromFloat(x));
    EXPECT_LE(std::fabs(back - x), std::fabs(x) * (1.f / 2048.f) + 1e-7f) << x;
  }
}

TEST(Fp16Test, EdgeCases) {
  EXPECT_EQ(Fp16FromFloat(0.f), 0);
  EXPECT_EQ(Fp16FromFloat(-0.f), 0x8000);
  EXPECT_EQ(Fp16FromFloat(65504.f), 0x7BFF);          // Largest finite half.
  EXPECT_EQ(Fp16FromFloat(65520.f), 0x7C00);          // Rounds to +inf.
  EXPECT_EQ(Fp16FromFloat(1e30f), 0x7C00);            // Overflow.
  EXPECT_EQ(Fp16FromFloat(-1e30f), 0xFC00);
  EXPECT_EQ(Fp16FromFloat(1e-30f), 0);                // Underflow to zero.
  EXPECT_TRUE(std::isnan(Fp16ToFloat(Fp16FromFloat(NAN))));
  EXPECT_EQ(Fp16ToFloat(0x3C00), 1.f);
  EXPECT_EQ(Fp16ToFloat(0x0001), std::ldexp(1.f, -24));  // Smallest subnormal.
}

TEST(Int8CodecTest, RoundTripErrorBound) {
  // Affine int8 over [min, max]: quantization error <= scale / 2 per element.
  for (uint32_t seed : {1u, 2u, 3u}) {
    auto data = RandomVec(64 * 32, seed, 2.f);
    auto orig = data;
    CodecParams p;
    QuantizeRows(data.data(), 64, 32, VectorCodec::kInt8, &p);
    EXPECT_GT(p.scale, 0.f);
    for (size_t i = 0; i < data.size(); ++i) {
      EXPECT_LE(std::fabs(data[i] - orig[i]), p.scale * 0.5f + 1e-5f) << i;
    }
  }
}

TEST(Int8CodecTest, OnGridReencodeIsExact) {
  // Re-encoding already-on-grid data with the SAME params must reproduce the
  // exact codes — the property the spill/restore path relies on for
  // bit-identical round trips.
  auto data = RandomVec(50 * 64, 7, 1.5f);
  CodecParams p;
  QuantizeRows(data.data(), 50, 64, VectorCodec::kInt8, &p);
  const auto grid = data;  // Already on-grid.
  CodedVectorSet first, second;
  first.EncodeWithParams({grid.data(), 50, 64}, VectorCodec::kInt8, p);
  QuantizeRows(data.data(), 50, 64, VectorCodec::kInt8, &p, /*reuse_params=*/true);
  EXPECT_EQ(data, grid);  // QuantizeRows is idempotent on-grid.
  second.EncodeWithParams({data.data(), 50, 64}, VectorCodec::kInt8, p);
  for (uint32_t i = 0; i < 50; ++i) {
    const int8_t* a = first.I8Row(i);
    const int8_t* b = second.I8Row(i);
    for (size_t j = 0; j < 64; ++j) ASSERT_EQ(a[j], b[j]);
  }
}

TEST(Int8CodecTest, DegenerateRangeIsStable) {
  std::vector<float> flat(128, 3.25f);
  CodecParams p;
  QuantizeRows(flat.data(), 4, 32, VectorCodec::kInt8, &p);
  for (float x : flat) EXPECT_FLOAT_EQ(x, 3.25f);
}

TEST(KernelDispatchTest, ScalarMatchesDispatchedWithinUlps) {
  const KernelOps& s = ScalarKernels();
  const KernelOps& k = Kernels();
  for (size_t d : kDims) {
    const auto a = RandomVec(d, 100 + static_cast<uint32_t>(d));
    const auto b = RandomVec(d, 200 + static_cast<uint32_t>(d));
    const float tol = 1e-5f * (1.f + static_cast<float>(d));
    EXPECT_NEAR(s.dot(a.data(), b.data(), d), k.dot(a.data(), b.data(), d), tol)
        << "dot d=" << d << " level=" << k.level;
    EXPECT_NEAR(s.l2sq(a.data(), b.data(), d), k.l2sq(a.data(), b.data(), d), tol)
        << "l2sq d=" << d;

    std::vector<uint16_t> f16(d);
    for (size_t i = 0; i < d; ++i) f16[i] = Fp16FromFloat(b[i]);
    EXPECT_NEAR(s.dot_f16(a.data(), f16.data(), d),
                k.dot_f16(a.data(), f16.data(), d), tol)
        << "dot_f16 d=" << d;

    std::vector<int8_t> i8(d);
    for (size_t i = 0; i < d; ++i) i8[i] = static_cast<int8_t>((i * 37) % 251 - 125);
    EXPECT_NEAR(s.dot_i8(a.data(), i8.data(), d), k.dot_i8(a.data(), i8.data(), d),
                tol * 128.f)
        << "dot_i8 d=" << d;

    // In-place ops: same outputs to within one rounding each.
    auto ys = a, yk = a;
    s.axpy(ys.data(), b.data(), d, 0.37f);
    k.axpy(yk.data(), b.data(), d, 0.37f);
    for (size_t i = 0; i < d; ++i) EXPECT_NEAR(ys[i], yk[i], 1e-6f);
    auto zs = a, zk = a;
    s.scale(zs.data(), d, -1.7f);
    k.scale(zk.data(), d, -1.7f);
    for (size_t i = 0; i < d; ++i) EXPECT_EQ(zs[i], zk[i]);  // One mul: exact.
  }
}

TEST(KernelDispatchTest, ZeroDimIsValid) {
  const KernelOps& k = Kernels();
  EXPECT_EQ(k.dot(nullptr, nullptr, 0), 0.f);
  EXPECT_EQ(k.l2sq(nullptr, nullptr, 0), 0.f);
  EXPECT_EQ(k.dot_f16(nullptr, nullptr, 0), 0.f);
  EXPECT_EQ(k.dot_i8(nullptr, nullptr, 0), 0.f);
  k.axpy(nullptr, nullptr, 0, 1.f);
  k.scale(nullptr, 0, 2.f);
  k.matvec(nullptr, 0, 8, nullptr, nullptr);
}

TEST(QueryScorerTest, Int8DecodeFreeDotMatchesDecodedDot) {
  // dot(q, dec(c)) == scale * (dot_i8(q, c) - zp * sum(q)) to rounding.
  const size_t n = 40, d = 67;  // d deliberately not a SIMD multiple.
  auto data = RandomVec(n * d, 5, 2.f);
  CodecParams p;
  QuantizeRows(data.data(), n, d, VectorCodec::kInt8, &p);
  CodedVectorSet coded;
  coded.EncodeWithParams({data.data(), n, d}, VectorCodec::kInt8, p);
  const auto q = RandomVec(d, 6);

  const ScoringView view({data.data(), n, d}, &coded, 8);
  ASSERT_TRUE(view.coded_active());
  const QueryScorer scorer(view, q.data());
  for (uint32_t i = 0; i < n; ++i) {
    // Exact == coded here because the fp32 rows are already on-grid.
    const float exact = scorer.ExactScore(i);
    EXPECT_NEAR(scorer.Score(i), exact, 2e-3f * (1.f + std::fabs(exact))) << i;
  }
}

TEST(QueryScorerTest, Fp16ScoringAndDecodeRow) {
  const size_t n = 16, d = 31;
  const auto data = RandomVec(n * d, 9);
  CodedVectorSet coded;
  coded.Encode({data.data(), n, d}, VectorCodec::kFp16);
  EXPECT_EQ(coded.size(), n);
  std::vector<float> dec(d);
  const auto q = RandomVec(d, 10);
  const QueryScorer scorer(ScoringView({data.data(), n, d}, &coded, 4), q.data());
  for (uint32_t i = 0; i < n; ++i) {
    coded.DecodeRow(i, dec.data());
    float ref = 0.f;
    for (size_t j = 0; j < d; ++j) {
      EXPECT_LE(std::fabs(dec[j] - data[i * d + j]),
                std::fabs(data[i * d + j]) / 2048.f + 1e-7f);
      ref += q[j] * dec[j];
    }
    EXPECT_NEAR(scorer.Score(i), ref, 1e-4f * (1.f + std::fabs(ref)));
  }
}

TEST(ScoringViewTest, Fp32SidecarIsInert) {
  const size_t n = 8, d = 16;
  const auto data = RandomVec(n * d, 12);
  CodedVectorSet coded;
  coded.Encode({data.data(), n, d}, VectorCodec::kFp32);
  EXPECT_TRUE(coded.empty());
  const ScoringView view({data.data(), n, d}, &coded, 8);
  EXPECT_FALSE(view.coded_active());
  const auto q = RandomVec(d, 13);
  const QueryScorer scorer(view, q.data());
  for (uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(scorer.Score(i), scorer.ExactScore(i));  // Bit-identical.
  }
  std::vector<ScoredId> hits{{0, 1.f}, {1, 2.f}};
  EXPECT_EQ(RerankTopHits(view, q.data(), &hits), 0u);  // No-op, order kept.
  EXPECT_EQ(hits[0].id, 0u);
}

TEST(RerankTest, RerankRestoresExactOrdering) {
  const size_t n = 64, d = 32;
  auto data = RandomVec(n * d, 21);
  const auto exact = data;
  CodecParams p;
  QuantizeRows(data.data(), n, d, VectorCodec::kInt8, &p);
  CodedVectorSet coded;
  coded.EncodeWithParams({data.data(), n, d}, VectorCodec::kInt8, p);
  const auto q = RandomVec(d, 22);

  // Score all ids coded, then rerank the full list against the EXACT
  // (pre-quantization) fp32 rows: the head must come back in exact order.
  const ScoringView view({exact.data(), n, d}, &coded, n);
  const QueryScorer scorer(view, q.data());
  std::vector<ScoredId> hits;
  for (uint32_t i = 0; i < n; ++i) hits.push_back({i, scorer.Score(i)});
  SortByScoreDesc(&hits);
  EXPECT_EQ(RerankTopHits(view, q.data(), &hits), n);
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_GE(hits[i - 1].score, hits[i].score);
  }
  for (const auto& h : hits) {
    EXPECT_EQ(h.score, Kernels().dot(q.data(), exact.data() + h.id * d, d));
  }
}

TEST(BatchedCodedTest, MatVecMatchesScorer) {
  const size_t n = 33, d = 17, nq = 3;
  auto data = RandomVec(n * d, 31);
  CodecParams p;
  QuantizeRows(data.data(), n, d, VectorCodec::kInt8, &p);
  CodedVectorSet coded;
  coded.EncodeWithParams({data.data(), n, d}, VectorCodec::kInt8, p);
  const auto qs = RandomVec(nq * d, 32);

  for (size_t j = 0; j < nq; ++j) {
    std::vector<float> single(n);
    MatVecDotCoded(coded, qs.data() + j * d, single.data());
    const QueryScorer scorer(ScoringView({data.data(), n, d}, &coded, 0),
                             qs.data() + j * d);
    for (uint32_t i = 0; i < n; ++i) EXPECT_EQ(single[i], scorer.Score(i));
  }
}

TEST(CodecNamesTest, ParseAndFormat) {
  VectorCodec c;
  EXPECT_TRUE(ParseVectorCodec("fp32", &c));
  EXPECT_EQ(c, VectorCodec::kFp32);
  EXPECT_TRUE(ParseVectorCodec("fp16", &c));
  EXPECT_EQ(c, VectorCodec::kFp16);
  EXPECT_TRUE(ParseVectorCodec("int8", &c));
  EXPECT_EQ(c, VectorCodec::kInt8);
  EXPECT_FALSE(ParseVectorCodec("int4", &c));
  EXPECT_STREQ(VectorCodecName(VectorCodec::kInt8), "int8");
  EXPECT_EQ(CodecBytesPerScalar(VectorCodec::kFp32), 4u);
  EXPECT_EQ(CodecBytesPerScalar(VectorCodec::kFp16), 2u);
  EXPECT_EQ(CodecBytesPerScalar(VectorCodec::kInt8), 1u);
  EXPECT_NE(KernelDispatchLevel(), nullptr);
}

}  // namespace
}  // namespace alaya

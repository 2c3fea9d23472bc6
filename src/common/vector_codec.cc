#include "src/common/vector_codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define ALAYA_X86 1
#elif defined(__ARM_NEON) || defined(__aarch64__)
#include <arm_neon.h>
#define ALAYA_NEON 1
#endif

namespace alaya {

const char* VectorCodecName(VectorCodec c) {
  switch (c) {
    case VectorCodec::kFp32:
      return "fp32";
    case VectorCodec::kFp16:
      return "fp16";
    case VectorCodec::kInt8:
      return "int8";
  }
  return "unknown";
}

bool ParseVectorCodec(const std::string& name, VectorCodec* out) {
  if (name == "fp32") {
    *out = VectorCodec::kFp32;
  } else if (name == "fp16") {
    *out = VectorCodec::kFp16;
  } else if (name == "int8") {
    *out = VectorCodec::kInt8;
  } else {
    return false;
  }
  return true;
}

size_t CodecBytesPerScalar(VectorCodec c) {
  switch (c) {
    case VectorCodec::kFp16:
      return 2;
    case VectorCodec::kInt8:
      return 1;
    case VectorCodec::kFp32:
    default:
      return 4;
  }
}

// --- IEEE binary16 conversions (scalar, round-to-nearest-even) -------------

uint16_t Fp16FromFloat(float x) {
  uint32_t f;
  std::memcpy(&f, &x, sizeof(f));
  const uint32_t sign = (f >> 16) & 0x8000u;
  f &= 0x7FFFFFFFu;
  if (f > 0x7F800000u) return static_cast<uint16_t>(sign | 0x7E00u);  // NaN.
  if (f >= 0x38800000u) {
    // Normal half range (or overflow): drop 13 mantissa bits with RNE.
    const uint32_t rounded = f + 0xFFFu + ((f >> 13) & 1u);
    if (rounded >= 0x47800000u) return static_cast<uint16_t>(sign | 0x7C00u);
    return static_cast<uint16_t>(sign | ((rounded - 0x38000000u) >> 13));
  }
  if (f < 0x33000000u) return static_cast<uint16_t>(sign);  // Below 2^-25 -> 0.
  // Subnormal half: mantissa becomes value / 2^-24, rounded to nearest even.
  const uint32_t shift = 126u - (f >> 23);  // In [14, 24].
  const uint32_t m = (f & 0x7FFFFFu) | 0x800000u;
  const uint32_t bias = ((1u << shift) >> 1) - 1u + ((m >> shift) & 1u);
  return static_cast<uint16_t>(sign | ((m + bias) >> shift));
}

float Fp16ToFloat(uint16_t h) {
  const uint32_t sign = static_cast<uint32_t>(h & 0x8000u) << 16;
  uint32_t exp = (h >> 10) & 0x1Fu;
  uint32_t mant = h & 0x3FFu;
  uint32_t f;
  if (exp == 0) {
    if (mant == 0) {
      f = sign;
    } else {
      int e = -1;
      do {
        mant <<= 1;
        ++e;
      } while (!(mant & 0x400u));
      f = sign | ((112u - static_cast<uint32_t>(e)) << 23) | ((mant & 0x3FFu) << 13);
    }
  } else if (exp == 0x1Fu) {
    f = sign | 0x7F800000u | (mant << 13);
  } else {
    f = sign | ((exp + 112u) << 23) | (mant << 13);
  }
  float out;
  std::memcpy(&out, &f, sizeof(out));
  return out;
}

// --- Scalar reference kernels ----------------------------------------------
// The fp32 loops are the historical vec_math.cc implementations, moved here
// verbatim: the scalar dispatch level is bit-exact with what every caller
// computed before the kernel table existed.

namespace {

float DotScalar(const float* a, const float* b, size_t d) {
  float s0 = 0.f, s1 = 0.f, s2 = 0.f, s3 = 0.f;
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  float s = s0 + s1 + s2 + s3;
  for (; i < d; ++i) s += a[i] * b[i];
  return s;
}

float L2SqScalar(const float* a, const float* b, size_t d) {
  float s = 0.f;
  for (size_t i = 0; i < d; ++i) {
    const float t = a[i] - b[i];
    s += t * t;
  }
  return s;
}

void AxpyScalar(float* y, const float* x, size_t d, float alpha) {
  for (size_t i = 0; i < d; ++i) y[i] += alpha * x[i];
}

void ScaleScalar(float* a, size_t d, float s) {
  for (size_t i = 0; i < d; ++i) a[i] *= s;
}

void MatVecScalar(const float* m, size_t rows, size_t d, const float* v,
                  float* out) {
  for (size_t i = 0; i < rows; ++i) out[i] = DotScalar(m + i * d, v, d);
}

float DotF16Scalar(const float* q, const uint16_t* c, size_t d) {
  float s0 = 0.f, s1 = 0.f, s2 = 0.f, s3 = 0.f;
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    s0 += q[i] * Fp16ToFloat(c[i]);
    s1 += q[i + 1] * Fp16ToFloat(c[i + 1]);
    s2 += q[i + 2] * Fp16ToFloat(c[i + 2]);
    s3 += q[i + 3] * Fp16ToFloat(c[i + 3]);
  }
  float s = s0 + s1 + s2 + s3;
  for (; i < d; ++i) s += q[i] * Fp16ToFloat(c[i]);
  return s;
}

float DotI8Scalar(const float* q, const int8_t* c, size_t d) {
  float s0 = 0.f, s1 = 0.f, s2 = 0.f, s3 = 0.f;
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    s0 += q[i] * static_cast<float>(c[i]);
    s1 += q[i + 1] * static_cast<float>(c[i + 1]);
    s2 += q[i + 2] * static_cast<float>(c[i + 2]);
    s3 += q[i + 3] * static_cast<float>(c[i + 3]);
  }
  float s = s0 + s1 + s2 + s3;
  for (; i < d; ++i) s += q[i] * static_cast<float>(c[i]);
  return s;
}

constexpr KernelOps kScalarOps = {
    DotScalar,  L2SqScalar,   AxpyScalar,  ScaleScalar,
    MatVecScalar, DotF16Scalar, DotI8Scalar, "scalar",
};

// --- AVX2 / FMA / F16C kernels ---------------------------------------------

#if defined(ALAYA_X86)

__attribute__((target("avx"))) inline float HSum256(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

__attribute__((target("avx2,fma"))) float DotAvx2(const float* a, const float* b,
                                                  size_t d) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= d; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8),
                           acc1);
  }
  for (; i + 8 <= d; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
  }
  float s = HSum256(_mm256_add_ps(acc0, acc1));
  for (; i < d; ++i) s += a[i] * b[i];
  return s;
}

__attribute__((target("avx2,fma"))) float L2SqAvx2(const float* a, const float* b,
                                                   size_t d) {
  __m256 acc = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const __m256 t = _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc = _mm256_fmadd_ps(t, t, acc);
  }
  float s = HSum256(acc);
  for (; i < d; ++i) {
    const float t = a[i] - b[i];
    s += t * t;
  }
  return s;
}

__attribute__((target("avx2,fma"))) void AxpyAvx2(float* y, const float* x,
                                                  size_t d, float alpha) {
  const __m256 va = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    _mm256_storeu_ps(y + i,
                     _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (; i < d; ++i) y[i] += alpha * x[i];
}

__attribute__((target("avx2"))) void ScaleAvx2(float* a, size_t d, float s) {
  const __m256 vs = _mm256_set1_ps(s);
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    _mm256_storeu_ps(a + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), vs));
  }
  for (; i < d; ++i) a[i] *= s;
}

__attribute__((target("avx2,fma"))) void MatVecAvx2(const float* m, size_t rows,
                                                    size_t d, const float* v,
                                                    float* out) {
  for (size_t i = 0; i < rows; ++i) out[i] = DotAvx2(m + i * d, v, d);
}

__attribute__((target("avx2,fma,f16c"))) float DotF16Avx2(const float* q,
                                                          const uint16_t* c,
                                                          size_t d) {
  __m256 acc = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const __m256 cf = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(c + i)));
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(q + i), cf, acc);
  }
  float s = HSum256(acc);
  for (; i < d; ++i) s += q[i] * Fp16ToFloat(c[i]);
  return s;
}

__attribute__((target("avx2,fma"))) float DotI8Avx2(const float* q, const int8_t* c,
                                                    size_t d) {
  __m256 acc = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const __m128i bytes =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(c + i));
    const __m256 cf = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(bytes));
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(q + i), cf, acc);
  }
  float s = HSum256(acc);
  for (; i < d; ++i) s += q[i] * static_cast<float>(c[i]);
  return s;
}

constexpr KernelOps kAvx2Ops = {
    DotAvx2,  L2SqAvx2,   AxpyAvx2,  ScaleAvx2,
    MatVecAvx2, DotF16Avx2, DotI8Avx2, "avx2",
};

#endif  // ALAYA_X86

// --- NEON kernels (arm64 baseline: no runtime probe needed) ----------------

#if defined(ALAYA_NEON)

inline float HSum128(float32x4_t v) { return vaddvq_f32(v); }

float DotNeon(const float* a, const float* b, size_t d) {
  float32x4_t acc0 = vdupq_n_f32(0.f);
  float32x4_t acc1 = vdupq_n_f32(0.f);
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
    acc1 = vfmaq_f32(acc1, vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
  }
  for (; i + 4 <= d; i += 4) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
  }
  float s = HSum128(vaddq_f32(acc0, acc1));
  for (; i < d; ++i) s += a[i] * b[i];
  return s;
}

float L2SqNeon(const float* a, const float* b, size_t d) {
  float32x4_t acc = vdupq_n_f32(0.f);
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    const float32x4_t t = vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
    acc = vfmaq_f32(acc, t, t);
  }
  float s = HSum128(acc);
  for (; i < d; ++i) {
    const float t = a[i] - b[i];
    s += t * t;
  }
  return s;
}

void AxpyNeon(float* y, const float* x, size_t d, float alpha) {
  const float32x4_t va = vdupq_n_f32(alpha);
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    vst1q_f32(y + i, vfmaq_f32(vld1q_f32(y + i), va, vld1q_f32(x + i)));
  }
  for (; i < d; ++i) y[i] += alpha * x[i];
}

void ScaleNeon(float* a, size_t d, float s) {
  const float32x4_t vs = vdupq_n_f32(s);
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    vst1q_f32(a + i, vmulq_f32(vld1q_f32(a + i), vs));
  }
  for (; i < d; ++i) a[i] *= s;
}

void MatVecNeon(const float* m, size_t rows, size_t d, const float* v, float* out) {
  for (size_t i = 0; i < rows; ++i) out[i] = DotNeon(m + i * d, v, d);
}

float DotF16Neon(const float* q, const uint16_t* c, size_t d) {
  // FP16 *conversions* are ARMv8.0 baseline (vcvt_f32_f16).
  float32x4_t acc = vdupq_n_f32(0.f);
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    const float32x4_t cf =
        vcvt_f32_f16(vreinterpret_f16_u16(vld1_u16(c + i)));
    acc = vfmaq_f32(acc, vld1q_f32(q + i), cf);
  }
  float s = HSum128(acc);
  for (; i < d; ++i) s += q[i] * Fp16ToFloat(c[i]);
  return s;
}

float DotI8Neon(const float* q, const int8_t* c, size_t d) {
  float32x4_t acc = vdupq_n_f32(0.f);
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const int16x8_t w = vmovl_s8(vld1_s8(c + i));
    acc = vfmaq_f32(acc, vld1q_f32(q + i),
                    vcvtq_f32_s32(vmovl_s16(vget_low_s16(w))));
    acc = vfmaq_f32(acc, vld1q_f32(q + i + 4),
                    vcvtq_f32_s32(vmovl_s16(vget_high_s16(w))));
  }
  float s = HSum128(acc);
  for (; i < d; ++i) s += q[i] * static_cast<float>(c[i]);
  return s;
}

constexpr KernelOps kNeonOps = {
    DotNeon,  L2SqNeon,   AxpyNeon,  ScaleNeon,
    MatVecNeon, DotF16Neon, DotI8Neon, "neon",
};

#endif  // ALAYA_NEON

const KernelOps& ResolveKernels() {
#if defined(ALAYA_X86)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
      __builtin_cpu_supports("f16c")) {
    return kAvx2Ops;
  }
#elif defined(ALAYA_NEON)
  return kNeonOps;
#endif
  return kScalarOps;
}

}  // namespace

const KernelOps& Kernels() {
  static const KernelOps& ops = ResolveKernels();
  return ops;
}

const KernelOps& ScalarKernels() { return kScalarOps; }

const char* KernelDispatchLevel() { return Kernels().level; }

// --- Codec parameter fitting and in-place quantization ---------------------

CodecParams ComputeCodecParams(const float* data, size_t count, VectorCodec codec) {
  CodecParams p;
  if (codec != VectorCodec::kInt8 || count == 0) return p;
  float lo = data[0], hi = data[0];
  for (size_t i = 1; i < count; ++i) {
    lo = std::min(lo, data[i]);
    hi = std::max(hi, data[i]);
  }
  const float range = hi - lo;
  p.scale = range > 1e-30f ? range / 255.f : 1.f;
  p.zero_point = -128.f - lo / p.scale;
  return p;
}

namespace {

inline int8_t EncodeI8(float x, const CodecParams& p) {
  const float c = std::nearbyintf(x / p.scale + p.zero_point);
  return static_cast<int8_t>(std::clamp(c, -128.f, 127.f));
}

inline float DecodeI8(int8_t c, const CodecParams& p) {
  return p.scale * (static_cast<float>(c) - p.zero_point);
}

}  // namespace

void QuantizeRows(float* data, size_t n, size_t d, VectorCodec codec,
                  CodecParams* params, bool reuse_params) {
  const size_t count = n * d;
  if (codec == VectorCodec::kFp32 || count == 0) {
    if (params != nullptr && !reuse_params) *params = CodecParams{};
    return;
  }
  if (codec == VectorCodec::kFp16) {
    for (size_t i = 0; i < count; ++i) data[i] = Fp16ToFloat(Fp16FromFloat(data[i]));
    if (params != nullptr && !reuse_params) *params = CodecParams{};
    return;
  }
  CodecParams p = (reuse_params && params != nullptr)
                      ? *params
                      : ComputeCodecParams(data, count, codec);
  for (size_t i = 0; i < count; ++i) data[i] = DecodeI8(EncodeI8(data[i], p), p);
  if (params != nullptr) *params = p;
}

// --- CodedVectorSet ---------------------------------------------------------

void CodedVectorSet::Encode(VectorSetView src, VectorCodec codec) {
  EncodeWithParams(src, codec,
                   ComputeCodecParams(src.data, src.n * src.d, codec));
}

void CodedVectorSet::EncodeWithParams(VectorSetView src, VectorCodec codec,
                                      CodecParams params) {
  codec_ = codec;
  params_ = params;
  n_ = 0;
  d_ = src.d;
  f16_.clear();
  i8_.clear();
  if (codec == VectorCodec::kFp32) return;  // Empty set == "score on fp32".
  n_ = src.n;
  const size_t count = src.n * src.d;
  if (codec == VectorCodec::kFp16) {
    f16_.resize(count);
    for (size_t i = 0; i < count; ++i) f16_[i] = Fp16FromFloat(src.data[i]);
  } else {
    i8_.resize(count);
    for (size_t i = 0; i < count; ++i) i8_[i] = EncodeI8(src.data[i], params_);
  }
}

void CodedVectorSet::DecodeRow(uint32_t id, float* out) const {
  switch (codec_) {
    case VectorCodec::kFp16: {
      const uint16_t* row = F16Row(id);
      for (size_t i = 0; i < d_; ++i) out[i] = Fp16ToFloat(row[i]);
      return;
    }
    case VectorCodec::kInt8: {
      const int8_t* row = I8Row(id);
      for (size_t i = 0; i < d_; ++i) out[i] = DecodeI8(row[i], params_);
      return;
    }
    case VectorCodec::kFp32:
      return;  // Nothing stored; the fp32 source is authoritative.
  }
}

// --- Query scoring ----------------------------------------------------------

QueryScorer::QueryScorer(const ScoringView& view, const float* q)
    : q_(q),
      d_(view.d()),
      fp32_(view.fp32),
      coded_(view.coded),
      codec_(view.coded_active() ? view.coded->codec() : VectorCodec::kFp32),
      ops_(&Kernels()) {
  if (codec_ == VectorCodec::kInt8) {
    float s = 0.f;
    for (size_t i = 0; i < d_; ++i) s += q[i];
    q_sum_ = s;
  }
}

size_t RerankTopHits(const ScoringView& view, const float* q,
                     std::vector<ScoredId>* hits) {
  if (!view.coded_active() || view.rerank_k == 0 || hits->empty()) return 0;
  const KernelOps& ops = Kernels();
  const size_t k = std::min(view.rerank_k, hits->size());
  for (size_t i = 0; i < k; ++i) {
    (*hits)[i].score = ops.dot(q, view.fp32.Vec((*hits)[i].id), view.fp32.d);
  }
  std::sort(hits->begin(), hits->begin() + static_cast<ptrdiff_t>(k),
            [](const ScoredId& a, const ScoredId& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.id < b.id;
            });
  return k;
}

// --- Batched coded forms ----------------------------------------------------

void MatVecDotCoded(const CodedVectorSet& coded, const float* q, float* out) {
  const KernelOps& ops = Kernels();
  const size_t n = coded.size();
  const size_t d = coded.dim();
  switch (coded.codec()) {
    case VectorCodec::kFp16:
      for (uint32_t i = 0; i < n; ++i) out[i] = ops.dot_f16(q, coded.F16Row(i), d);
      return;
    case VectorCodec::kInt8: {
      float q_sum = 0.f;
      for (size_t i = 0; i < d; ++i) q_sum += q[i];
      for (uint32_t i = 0; i < n; ++i) {
        out[i] = DotInt8(ops, q, coded.I8Row(i), d, coded.params(), q_sum);
      }
      return;
    }
    case VectorCodec::kFp32:
      return;  // Nothing stored: caller should MatVecDot the fp32 source.
  }
}

}  // namespace alaya

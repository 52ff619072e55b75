#include "util/simd.hpp"

#include <atomic>
#include <cstring>

#include "util/env.hpp"

#if !defined(MESHPRAM_NO_SIMD) && defined(__x86_64__)
#define MESHPRAM_HAVE_AVX2_BUILD 1
#include <immintrin.h>
#else
#define MESHPRAM_HAVE_AVX2_BUILD 0
#endif

namespace meshpram::simd {

namespace {

/// -1 = undecided, 0 = scalar, 1 = avx2. Atomic: under the distributed
/// machine several rank threads can make the first kernel call at once, and
/// all must see a torn-free decision (every writer computes the same value,
/// so relaxed ordering suffices).
std::atomic<int> g_dispatch{-1};

bool cpu_and_env_allow() {
#if MESHPRAM_HAVE_AVX2_BUILD
  if (!__builtin_cpu_supports("avx2")) return false;
  if (const auto v = env_str("MESHPRAM_SIMD")) {
    if (*v == "off" || *v == "0" || *v == "OFF") return false;
  }
  return true;
#else
  return false;
#endif
}

// ---------------------------------------------------------------------------
// Scalar definitions (the semantic reference).

/// XY direction of a nonzero remaining offset (Dir values, column first).
inline u32 offset_dir(int dr, int dc) {
  return dc > 0 ? 1u : dc < 0 ? 3u : dr > 0 ? 2u : 0u;
}

/// Packs (rem, -index) into one unsigned key whose maximum is the farthest
/// record, first occurrence on ties; 0 never wins against a real record.
inline u64 argmax_key(int dr, int dc, i64 i) {
  const u64 rem = static_cast<u64>((dr < 0 ? -dr : dr) + (dc < 0 ? -dc : dc));
  return (rem << 32) | (0xFFFFFFFFu - static_cast<u64>(i));
}

void transit_argmax_scalar(const void* recs, i64 n, i32* best) {
  const unsigned char* p = static_cast<const unsigned char*>(recs);
  u64 acc[4] = {0, 0, 0, 0};
  for (i64 i = 0; i < n; ++i, p += 8) {
    i16 dr, dc;
    std::memcpy(&dr, p + 4, sizeof(dr));
    std::memcpy(&dc, p + 6, sizeof(dc));
    const u32 d = offset_dir(dr, dc);
    const u64 key = argmax_key(dr, dc, i);
    for (u32 j = 0; j < 4; ++j) {
      const u64 cand = d == j ? key : 0;
      acc[j] = acc[j] > cand ? acc[j] : cand;
    }
  }
  for (int j = 0; j < 4; ++j) {
    best[j] = acc[j] == 0
                  ? -1
                  : static_cast<i32>(0xFFFFFFFFu - (acc[j] & 0xFFFFFFFFu));
  }
}

i64 first_key_violation_scalar(const void* recs, i64 rec_bytes, i64 n) {
  const unsigned char* p = static_cast<const unsigned char*>(recs);
  for (i64 i = 0; i + 1 < n; ++i) {
    u64 a, b;
    std::memcpy(&a, p + i * rec_bytes, sizeof(a));
    std::memcpy(&b, p + (i + 1) * rec_bytes, sizeof(b));
    if (a >= b) return i;
  }
  return n > 0 ? n - 1 : 0;
}

void and_bytes_scalar(unsigned char* dst, const unsigned char* a,
                      const unsigned char* b, i64 n) {
  for (i64 i = 0; i < n; ++i) dst[i] = static_cast<unsigned char>(a[i] & b[i]);
}

// ---------------------------------------------------------------------------
// AVX2 variants. Compiled with a function-level target so the translation
// unit (and everything else) keeps the baseline ISA.
#if MESHPRAM_HAVE_AVX2_BUILD

__attribute__((target("avx2"))) void transit_argmax_avx2(const void* recs,
                                                          i64 n, i32* best) {
  // Eight records per iteration, the last block masked (masked loads never
  // touch memory past the queue). Keys are 32-bit here — (rem << 16) |
  // (0xFFFF - i) — which the dispatcher allows only while indices fit 16
  // bits (rem <= 2 * 32767 always does). The odd dwords of two 4-record
  // loads hold (dr, dc); shuffle_ps gathers them in record order
  // 0,1,4,5 | 2,3,6,7, which the index vector mirrors.
  const __m256i zero = _mm256_setzero_si256();
  const __m256i ones = _mm256_set1_epi32(-1);
  const __m256i lane_idx = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
  const __m256i rec_lo = _mm256_setr_epi32(0, 0, 1, 1, 2, 2, 3, 3);
  const __m256i rec_hi = _mm256_setr_epi32(4, 4, 5, 5, 6, 6, 7, 7);
  const __m256i low16 = _mm256_set1_epi32(0xFFFF);
  __m256i acc_n = zero, acc_e = zero, acc_s = zero, acc_w = zero;
  const int* p = static_cast<const int*>(recs);
  for (i64 i = 0; i < n; i += 8, p += 16) {
    const __m256i left = _mm256_set1_epi32(static_cast<int>(n - i));
    const __m256 a = _mm256_castsi256_ps(
        _mm256_maskload_epi32(p, _mm256_cmpgt_epi32(left, rec_lo)));
    const __m256 b = _mm256_castsi256_ps(
        _mm256_maskload_epi32(p + 8, _mm256_cmpgt_epi32(left, rec_hi)));
    const __m256i hi =
        _mm256_castps_si256(_mm256_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1)));
    const __m256i dr = _mm256_srai_epi32(_mm256_slli_epi32(hi, 16), 16);
    const __m256i dc = _mm256_srai_epi32(hi, 16);
    const __m256i rem =
        _mm256_add_epi32(_mm256_abs_epi32(dr), _mm256_abs_epi32(dc));
    const __m256i idx =
        _mm256_add_epi32(lane_idx, _mm256_set1_epi32(static_cast<int>(i)));
    const __m256i valid = _mm256_cmpgt_epi32(left, lane_idx);
    const __m256i key = _mm256_and_si256(
        valid, _mm256_or_si256(_mm256_slli_epi32(rem, 16),
                               _mm256_sub_epi32(low16, idx)));
    const __m256i east = _mm256_cmpgt_epi32(dc, zero);
    const __m256i west = _mm256_cmpgt_epi32(zero, dc);
    const __m256i lateral = _mm256_or_si256(east, west);
    const __m256i south =
        _mm256_andnot_si256(lateral, _mm256_cmpgt_epi32(dr, zero));
    const __m256i north =
        _mm256_andnot_si256(_mm256_or_si256(lateral, south), ones);
    acc_n = _mm256_max_epu32(acc_n, _mm256_and_si256(key, north));
    acc_e = _mm256_max_epu32(acc_e, _mm256_and_si256(key, east));
    acc_s = _mm256_max_epu32(acc_s, _mm256_and_si256(key, south));
    acc_w = _mm256_max_epu32(acc_w, _mm256_and_si256(key, west));
  }
  // Transpose-reduce the four accumulators to one [N, E, S, W] vector.
  const __m256i ne = _mm256_max_epu32(_mm256_unpacklo_epi32(acc_n, acc_e),
                                      _mm256_unpackhi_epi32(acc_n, acc_e));
  const __m256i sw = _mm256_max_epu32(_mm256_unpacklo_epi32(acc_s, acc_w),
                                      _mm256_unpackhi_epi32(acc_s, acc_w));
  const __m256i nesw = _mm256_max_epu32(_mm256_unpacklo_epi64(ne, sw),
                                        _mm256_unpackhi_epi64(ne, sw));
  const __m128i acc = _mm_max_epu32(_mm256_castsi256_si128(nesw),
                                    _mm256_extracti128_si256(nesw, 1));
  // best = acc == 0 ? -1 : 0xFFFF - (acc & 0xFFFF)
  const __m128i none = _mm_cmpeq_epi32(acc, _mm_setzero_si128());
  const __m128i idx = _mm_sub_epi32(_mm_set1_epi32(0xFFFF),
                                    _mm_and_si128(acc, _mm_set1_epi32(0xFFFF)));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(best), _mm_or_si128(idx, none));
}

__attribute__((target("avx2"))) i64 first_key_violation_avx2(
    const void* recs, i64 rec_bytes, i64 n) {
  if (n < 2) return n > 0 ? n - 1 : 0;
  if (rec_bytes != 32) return first_key_violation_scalar(recs, rec_bytes, n);
  // 32-byte records: the leading keys of records i..i+3 sit 32 bytes apart.
  // Gather four keys by interleaving two strided loads, compare against the
  // shifted sequence; unsigned order via the sign-flip trick.
  const unsigned char* p = static_cast<const unsigned char*>(recs);
  const __m256i flip = _mm256_set1_epi64x(static_cast<long long>(1ULL << 63));
  i64 i = 0;
  for (; i + 5 <= n; i += 4) {
    // keys[i..i+4]: load the leading u64 of five consecutive records.
    const __m256i a = _mm256_set_epi64x(
        static_cast<long long>(*reinterpret_cast<const u64*>(p + (i + 3) * 32)),
        static_cast<long long>(*reinterpret_cast<const u64*>(p + (i + 2) * 32)),
        static_cast<long long>(*reinterpret_cast<const u64*>(p + (i + 1) * 32)),
        static_cast<long long>(*reinterpret_cast<const u64*>(p + (i + 0) * 32)));
    const __m256i b = _mm256_set_epi64x(
        static_cast<long long>(*reinterpret_cast<const u64*>(p + (i + 4) * 32)),
        static_cast<long long>(*reinterpret_cast<const u64*>(p + (i + 3) * 32)),
        static_cast<long long>(*reinterpret_cast<const u64*>(p + (i + 2) * 32)),
        static_cast<long long>(*reinterpret_cast<const u64*>(p + (i + 1) * 32)));
    // a[j] >= b[j]  <=>  NOT (a[j] < b[j])  (unsigned)
    const __m256i lt = _mm256_cmpgt_epi64(_mm256_xor_si256(b, flip),
                                          _mm256_xor_si256(a, flip));
    const int mask = _mm256_movemask_epi8(lt);
    if (mask != -1) {
      // Some lane not strictly increasing: find the first one.
      for (i64 j = i; j < i + 4; ++j) {
        u64 ka, kb;
        std::memcpy(&ka, p + j * 32, sizeof(ka));
        std::memcpy(&kb, p + (j + 1) * 32, sizeof(kb));
        if (ka >= kb) return j;
      }
    }
  }
  for (; i + 1 < n; ++i) {
    u64 ka, kb;
    std::memcpy(&ka, p + i * 32, sizeof(ka));
    std::memcpy(&kb, p + (i + 1) * 32, sizeof(kb));
    if (ka >= kb) return i;
  }
  return n - 1;
}

__attribute__((target("avx2"))) void and_bytes_avx2(unsigned char* dst,
                                                    const unsigned char* a,
                                                    const unsigned char* b,
                                                    i64 n) {
  i64 i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_and_si256(va, vb));
  }
  for (; i < n; ++i) dst[i] = static_cast<unsigned char>(a[i] & b[i]);
}

#endif  // MESHPRAM_HAVE_AVX2_BUILD

int dispatch() {
  int d = g_dispatch.load(std::memory_order_relaxed);
  if (d < 0) {
    d = cpu_and_env_allow() ? 1 : 0;
    g_dispatch.store(d, std::memory_order_relaxed);
  }
  return d;
}

}  // namespace

bool available() { return dispatch() == 1; }

void set_enabled(bool on) {
  g_dispatch.store((on && cpu_and_env_allow()) ? 1 : 0,
                   std::memory_order_relaxed);
}

const char* kernel_name() { return available() ? "avx2" : "scalar"; }

void transit_argmax(const void* recs, i64 n, i32* best) {
#if MESHPRAM_HAVE_AVX2_BUILD
  // 16-bit indices in the vector keys.
  if (n <= 0x10000 && dispatch() == 1) {
    transit_argmax_avx2(recs, n, best);
    return;
  }
#endif
  transit_argmax_scalar(recs, n, best);
}

i64 first_key_violation(const void* recs, i64 rec_bytes, i64 n) {
#if MESHPRAM_HAVE_AVX2_BUILD
  if (dispatch() == 1) return first_key_violation_avx2(recs, rec_bytes, n);
#endif
  return first_key_violation_scalar(recs, rec_bytes, n);
}

void and_bytes(unsigned char* dst, const unsigned char* a,
               const unsigned char* b, i64 n) {
#if MESHPRAM_HAVE_AVX2_BUILD
  if (dispatch() == 1) {
    and_bytes_avx2(dst, a, b, n);
    return;
  }
#endif
  and_bytes_scalar(dst, a, b, n);
}

}  // namespace meshpram::simd

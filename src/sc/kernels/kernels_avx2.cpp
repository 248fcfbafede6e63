// AVX2 kernel table: 8-wide comparator packing (8 LFSR states scrambled
// and compared per vector, 8 vectors' movemasks assembled into each packed
// output word) and 256-bit word operations for the multi-word AND/OR
// product loops.
#include "sc/kernels/kernels_internal.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#if ACOUSTIC_KERNELS_X86_TABLES && defined(__AVX2__) && defined(__POPCNT__)

#include <immintrin.h>

namespace {
#include "sc/kernels/kernels_impl.inl"

using acoustic::sc::kernels::CompareWiring;
using acoustic::sc::kernels::kScrambleMul;

void avx2_compare_pack(const CompareWiring& w, const std::uint32_t* states,
                       std::size_t count, std::uint32_t level,
                       std::uint64_t* out, std::size_t bit0) {
  const __m256i pre = _mm256_set1_epi32(static_cast<int>(w.pre_xor));
  const __m256i post = _mm256_set1_epi32(static_cast<int>(w.post_xor));
  const __m256i mask = _mm256_set1_epi32(static_cast<int>(w.mask));
  const __m256i mul = _mm256_set1_epi32(static_cast<int>(kScrambleMul));
  // Unsigned x < level via the sign-flip trick (hoisted, pre-flipped
  // level) — AVX2 only has signed 32-bit compares.
  const __m256i sign = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i lvl =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int>(level)), sign);
  // Rotate within `width` bits as two runtime-count shifts; rot == 0 is
  // branched around so the right-shift count stays < width.
  const __m128i rot_l = _mm_cvtsi32_si128(static_cast<int>(w.rot));
  const __m128i rot_r = _mm_cvtsi32_si128(static_cast<int>(w.width - w.rot));
  const bool identity = w.identity;
  const bool do_rot = w.rot != 0;

  const auto compare8 = [&](const std::uint32_t* s) {
    __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s));
    if (!identity) {
      x = _mm256_xor_si256(x, pre);
      x = _mm256_and_si256(_mm256_mullo_epi32(x, mul), mask);
      if (do_rot) {
        x = _mm256_and_si256(_mm256_or_si256(_mm256_sll_epi32(x, rot_l),
                                             _mm256_srl_epi32(x, rot_r)),
                             mask);
      }
      x = _mm256_xor_si256(x, post);
    }
    const __m256i lt =
        _mm256_cmpgt_epi32(lvl, _mm256_xor_si256(x, sign));  // x < level
    return static_cast<std::uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(lt)));  // 8 compare bits
  };
  pack_compare_bytes(compare8, w, states, count, level, out, bit0);
}

void avx2_and_or(std::uint64_t* acc, const std::uint64_t* a,
                 const std::uint64_t* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i vc =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i),
                        _mm256_or_si256(vc, _mm256_and_si256(va, vb)));
  }
  for (; i < n; ++i) {
    acc[i] |= a[i] & b[i];
  }
}

void avx2_or_reduce(std::uint64_t* acc, const std::uint64_t* a,
                    std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vc =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i),
                        _mm256_or_si256(vc, va));
  }
  for (; i < n; ++i) {
    acc[i] |= a[i];
  }
}

std::uint64_t avx2_popcount_words(const std::uint64_t* words,
                                  std::size_t n) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += static_cast<std::uint64_t>(
        _mm_popcnt_u64(static_cast<unsigned long long>(words[i])));
  }
  return total;
}

std::uint64_t avx2_and_or_popcount(std::uint64_t* acc,
                                   const std::uint64_t* a,
                                   const std::uint64_t* b, std::size_t n) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc[i] |= a[i] & b[i];
    total += static_cast<std::uint64_t>(
        _mm_popcnt_u64(static_cast<unsigned long long>(acc[i])));
  }
  return total;
}

}  // namespace

namespace acoustic::sc::kernels::detail {

const KernelTable& avx2_table() noexcept {
  static const KernelTable table = {
      "avx2",
      Level::kAvx2,
      &avx2_compare_pack,
      &avx2_and_or,
      &avx2_or_reduce,
      &generic_and_words,
      &generic_or_words,
      &generic_xor_words,
      &generic_xnor_words,
      &avx2_popcount_words,
      &avx2_and_or_popcount,
      &generic_max_stream,
  };
  return table;
}

}  // namespace acoustic::sc::kernels::detail

#elif ACOUSTIC_KERNELS_X86_TABLES

// Built without -mavx2 -mpopcnt (unexpected on an x86 CMake build): keep
// the symbol defined; the scalar bodies produce the same bits.
namespace acoustic::sc::kernels::detail {
const KernelTable& avx2_table() noexcept { return scalar_table(); }
}  // namespace acoustic::sc::kernels::detail

#endif

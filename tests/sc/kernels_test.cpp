// Property suite for the SIMD kernel layer: every level the running CPU
// supports must be bit-identical to the scalar reference for every
// operation, including empty inputs, single bits, word boundaries and
// unaligned pack offsets. This is the contract that lets the dispatcher
// pick any level at startup without changing a single output bit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "sc/kernels/kernels.hpp"
#include "sc/rng.hpp"

namespace kn = acoustic::sc::kernels;

namespace {

/// Every level the host can execute (always includes scalar).
std::vector<kn::Level> supported_levels() {
  std::vector<kn::Level> out;
  for (const kn::Level level :
       {kn::Level::kScalar, kn::Level::kSse42, kn::Level::kAvx2,
        kn::Level::kNeon}) {
    if (kn::level_supported(level)) {
      out.push_back(level);
    }
  }
  return out;
}

std::vector<std::uint64_t> random_words(std::size_t n, std::uint32_t seed) {
  acoustic::sc::XorShift32 rng(seed);
  std::vector<std::uint64_t> words(n);
  for (auto& w : words) {
    w = (static_cast<std::uint64_t>(rng.next()) << 32) | rng.next();
  }
  return words;
}

/// Packs the expected comparator bits with the reference scrambler — the
/// oracle every compare_pack level is held to.
std::vector<std::uint64_t> expected_pack(const kn::CompareWiring& w,
                                         const std::vector<std::uint32_t>& st,
                                         std::uint32_t level,
                                         std::size_t bit0,
                                         std::size_t total_words) {
  std::vector<std::uint64_t> out(total_words, 0);
  for (std::size_t j = 0; j < st.size(); ++j) {
    if (kn::scramble_state(w, st[j]) < level) {
      const std::size_t bit = bit0 + j;
      out[bit / 64] |= std::uint64_t{1} << (bit % 64);
    }
  }
  return out;
}

}  // namespace

TEST(Kernels, ScalarAlwaysSupportedAndActiveLevelIsSupported) {
  EXPECT_TRUE(kn::level_supported(kn::Level::kScalar));
  EXPECT_TRUE(kn::level_supported(kn::active_level()));
  EXPECT_TRUE(kn::level_supported(kn::detect_best()));
  EXPECT_STREQ(kn::table().name, kn::level_name(kn::active_level()));
}

TEST(Kernels, ResolveLevelMapsRequestsWithoutEverSigilling) {
  const kn::Level best = kn::detect_best();
  EXPECT_EQ(kn::resolve_level(nullptr), best);
  EXPECT_EQ(kn::resolve_level(""), best);
  EXPECT_EQ(kn::resolve_level("native"), best);
  EXPECT_EQ(kn::resolve_level("no-such-isa"), best);
  EXPECT_EQ(kn::resolve_level("scalar"), kn::Level::kScalar);
  for (const char* name : {"sse42", "avx2", "neon"}) {
    const kn::Level got = kn::resolve_level(name);
    // Either the named level (when supported) or the safe best fallback.
    EXPECT_TRUE(kn::level_supported(got));
    if (std::string(kn::level_name(got)) != name) {
      EXPECT_EQ(got, best);
    }
  }
}

TEST(Kernels, ComparePackMatchesScalarReferenceEverywhere) {
  const auto levels = supported_levels();
  acoustic::sc::XorShift32 rng(12345);
  for (const unsigned width : {4u, 8u, 17u, 32u}) {
    const std::uint32_t mask =
        width >= 32 ? ~std::uint32_t{0} : ((std::uint32_t{1} << width) - 1);
    std::vector<kn::CompareWiring> wirings;
    kn::CompareWiring identity;
    identity.identity = true;
    identity.mask = mask;
    identity.width = width;
    wirings.push_back(identity);
    kn::CompareWiring scrambled;
    scrambled.pre_xor = 0x9E3779B9u & mask;
    scrambled.post_xor = 0x85EBCA6Bu & mask;
    scrambled.rot = (width > 1) ? (width / 2) : 0;
    scrambled.mask = mask;
    scrambled.width = width;
    wirings.push_back(scrambled);
    for (const kn::CompareWiring& wiring : wirings) {
      for (const std::size_t count :
           {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
            std::size_t{63}, std::size_t{64}, std::size_t{65},
            std::size_t{127}, std::size_t{128}, std::size_t{1000}}) {
        std::vector<std::uint32_t> states(count);
        for (auto& s : states) {
          s = rng.next() & mask;
        }
        for (const std::size_t bit0 :
             {std::size_t{0}, std::size_t{1}, std::size_t{37},
              std::size_t{63}, std::size_t{200}}) {
          const std::size_t total_words = (bit0 + count + 63) / 64 + 1;
          // Bits outside [bit0, bit0 + count) hold a pattern the kernel
          // must leave alone: a wrap-around fill packs its second run
          // mid-word after the first.
          std::vector<std::uint64_t> outside = random_words(
              total_words, static_cast<std::uint32_t>(1 + count + bit0));
          for (std::size_t b = bit0; b < bit0 + count; ++b) {
            outside[b / 64] &= ~(std::uint64_t{1} << (b % 64));
          }
          for (const std::uint32_t cmp_level :
               {std::uint32_t{0}, std::uint32_t{1}, (mask >> 1) + 1,
                mask, mask + 1}) {
            std::vector<std::uint64_t> want = expected_pack(
                wiring, states, cmp_level, bit0, total_words);
            for (std::size_t i = 0; i < total_words; ++i) {
              want[i] |= outside[i];
            }
            for (const kn::Level level : levels) {
              std::vector<std::uint64_t> got = outside;
              kn::table_for(level).compare_pack(wiring, states.data(),
                                               count, cmp_level, got.data(),
                                               bit0);
              ASSERT_EQ(got, want)
                  << kn::level_name(level) << " width=" << width
                  << " count=" << count << " bit0=" << bit0
                  << " level=" << cmp_level
                  << " identity=" << wiring.identity;
            }
          }
        }
      }
    }
  }
}

TEST(Kernels, WordKernelsMatchScalarOnAllLengths) {
  const auto levels = supported_levels();
  const kn::KernelTable& ref = kn::table_for(kn::Level::kScalar);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        std::size_t{8}, std::size_t{16}, std::size_t{33}}) {
    const std::vector<std::uint64_t> a = random_words(n, 7u + n);
    const std::vector<std::uint64_t> b = random_words(n, 99u + n);
    const std::vector<std::uint64_t> acc0 = random_words(n, 1234u + n);

    std::vector<std::uint64_t> want_and_or = acc0;
    ref.and_or(want_and_or.data(), a.data(), b.data(), n);
    std::vector<std::uint64_t> want_or_reduce = acc0;
    ref.or_reduce(want_or_reduce.data(), a.data(), n);
    std::vector<std::uint64_t> want_and(n), want_or(n), want_xor(n),
        want_xnor(n);
    ref.and_words(want_and.data(), a.data(), b.data(), n);
    ref.or_words(want_or.data(), a.data(), b.data(), n);
    ref.xor_words(want_xor.data(), a.data(), b.data(), n);
    ref.xnor_words(want_xnor.data(), a.data(), b.data(), n);
    const std::uint64_t want_pop = ref.popcount_words(a.data(), n);
    std::vector<std::uint64_t> want_fused = acc0;
    const std::uint64_t want_fused_pop =
        ref.and_or_popcount(want_fused.data(), a.data(), b.data(), n);

    for (const kn::Level level : levels) {
      const kn::KernelTable& kt = kn::table_for(level);
      std::vector<std::uint64_t> out = acc0;
      kt.and_or(out.data(), a.data(), b.data(), n);
      EXPECT_EQ(out, want_and_or) << kn::level_name(level) << " n=" << n;
      out = acc0;
      kt.or_reduce(out.data(), a.data(), n);
      EXPECT_EQ(out, want_or_reduce) << kn::level_name(level) << " n=" << n;
      out.assign(n, 0);
      kt.and_words(out.data(), a.data(), b.data(), n);
      EXPECT_EQ(out, want_and) << kn::level_name(level) << " n=" << n;
      out.assign(n, 0);
      kt.or_words(out.data(), a.data(), b.data(), n);
      EXPECT_EQ(out, want_or) << kn::level_name(level) << " n=" << n;
      out.assign(n, 0);
      kt.xor_words(out.data(), a.data(), b.data(), n);
      EXPECT_EQ(out, want_xor) << kn::level_name(level) << " n=" << n;
      out.assign(n, 0);
      kt.xnor_words(out.data(), a.data(), b.data(), n);
      EXPECT_EQ(out, want_xnor) << kn::level_name(level) << " n=" << n;
      EXPECT_EQ(kt.popcount_words(a.data(), n), want_pop)
          << kn::level_name(level) << " n=" << n;
      out = acc0;
      EXPECT_EQ(kt.and_or_popcount(out.data(), a.data(), b.data(), n),
                want_fused_pop)
          << kn::level_name(level) << " n=" << n;
      EXPECT_EQ(out, want_fused) << kn::level_name(level) << " n=" << n;

      // Aliased first operand (documented as allowed for the elementwise
      // ops): out == a must behave like a copy of a was read first.
      out = a;
      kt.xor_words(out.data(), out.data(), b.data(), n);
      EXPECT_EQ(out, want_xor)
          << kn::level_name(level) << " aliased n=" << n;
      out = a;
      kt.xnor_words(out.data(), out.data(), b.data(), n);
      EXPECT_EQ(out, want_xnor)
          << kn::level_name(level) << " aliased n=" << n;
    }
  }
}

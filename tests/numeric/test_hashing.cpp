// numeric::StructuralHasher vector overloads: word-wise folding through the
// fmix64 mixer must keep every single-bit change of any element visible,
// must not let two sign-bit flips cancel (they would under plain word-wise
// FNV-1a), and must keep exact-bit semantics and the length prefix.
#include "numeric/hashing.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

namespace an = aeropack::numeric;

namespace {

std::uint64_t hash_of(const std::vector<double>& v) {
  an::StructuralHasher h;
  h.add(v);
  return h.value();
}

std::uint64_t hash_of(const std::vector<std::size_t>& v) {
  an::StructuralHasher h;
  h.add(v);
  return h.value();
}

double flip_bit(double d, int bit) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  bits ^= std::uint64_t{1} << bit;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

const std::vector<double> kSample{167.0, 0.25, -3.5e-7, 1e300, 0.0, 42.0};

}  // namespace

TEST(StructuralHasher, EqualVectorsHashEqual) {
  EXPECT_EQ(hash_of(kSample), hash_of(std::vector<double>(kSample)));
  const std::vector<std::size_t> idx{0, 7, 49, 343};
  EXPECT_EQ(hash_of(idx), hash_of(std::vector<std::size_t>(idx)));
}

TEST(StructuralHasher, AnySingleBitFlipOfAnyDoubleChangesTheHash) {
  const std::uint64_t base = hash_of(kSample);
  for (std::size_t i = 0; i < kSample.size(); ++i)
    for (int bit = 0; bit < 64; ++bit) {
      std::vector<double> v = kSample;
      v[i] = flip_bit(v[i], bit);
      EXPECT_NE(hash_of(v), base) << "element " << i << " bit " << bit;
    }
}

TEST(StructuralHasher, AnySingleBitFlipOfAnyIndexChangesTheHash) {
  const std::vector<std::size_t> idx{0, 7, 49, 343, 110592};
  const std::uint64_t base = hash_of(idx);
  for (std::size_t i = 0; i < idx.size(); ++i)
    for (int bit = 0; bit < 64; ++bit) {
      std::vector<std::size_t> v = idx;
      v[i] ^= std::size_t{1} << bit;
      EXPECT_NE(hash_of(v), base) << "element " << i << " bit " << bit;
    }
}

TEST(StructuralHasher, TwoSignFlipsDoNotCancel) {
  const std::uint64_t base = hash_of(kSample);
  for (std::size_t i = 0; i < kSample.size(); ++i)
    for (std::size_t j = i + 1; j < kSample.size(); ++j) {
      std::vector<double> v = kSample;
      v[i] = -v[i];
      v[j] = -v[j];
      EXPECT_NE(hash_of(v), base) << "elements " << i << " and " << j;
    }
}

TEST(StructuralHasher, SignedZerosStayDistinct) {
  EXPECT_NE(hash_of(std::vector<double>{0.0}), hash_of(std::vector<double>{-0.0}));
}

TEST(StructuralHasher, LengthPrefixSeparatesAdjacentVectors) {
  an::StructuralHasher a, b;
  a.add(std::vector<double>{1.0, 2.0}).add(std::vector<double>{3.0});
  b.add(std::vector<double>{1.0}).add(std::vector<double>{2.0, 3.0});
  EXPECT_NE(a.value(), b.value());
  EXPECT_NE(hash_of(std::vector<double>{}), hash_of(std::vector<double>{0.0}));
}

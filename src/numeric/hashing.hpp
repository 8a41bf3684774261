// Structural content hashing for shareable solver artifacts.
//
// The scenario service (core::ArtifactCache) keys immutable artifacts — FV
// assemblies, skyline factorizations, compact models — by a hash of every
// input the artifact depends on. Hash-equality must imply that rebuilding
// the artifact would reproduce it bit-for-bit, so the hasher folds in the
// *exact* IEEE-754 bit pattern of every double (no rounding, no
// normalization: +0.0 and -0.0 hash differently, as they must — they can
// produce different downstream bits). FNV-1a keeps the hash stable across
// runs, platforms of the same endianness, and thread counts; it is a cache
// key, not a cryptographic digest. Scalars and strings fold byte by byte;
// the vector overloads, which carry the per-cell coefficient arrays, fold
// one 64-bit word per step through murmur3's invertible fmix64 finalizer
// before the FNV xor-multiply — about five times faster, and the mixer
// keeps flips of the same bit in two elements from cancelling (they would
// under plain word-wise FNV-1a). Every step is a bijection of the state,
// so changing any single element always changes the hash.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "numeric/dense.hpp"

namespace aeropack::numeric {

class CsrMatrix;

/// Incremental 64-bit FNV-1a hasher. add() calls chain; insertion order is
/// part of the hash, so producers must feed fields in one fixed order.
/// Vectors are length-prefixed and hashed word-wise (see the file comment).
class StructuralHasher {
 public:
  StructuralHasher& add(std::uint64_t v) {
    for (int s = 0; s < 64; s += 8) byte(static_cast<unsigned char>(v >> s));
    return *this;
  }
  /// Exact bit pattern of the double (not its rounded value).
  StructuralHasher& add(double v);
  /// Length-prefixed so "ab"+"c" and "a"+"bc" hash differently.
  StructuralHasher& add(std::string_view s);
  StructuralHasher& add(const std::vector<double>& v);
  StructuralHasher& add(const std::vector<std::size_t>& v);

  std::uint64_t value() const { return state_; }

 private:
  void byte(unsigned char b) {
    state_ = (state_ ^ b) * kPrime;
  }
  void word(std::uint64_t w) {
    // murmur3 fmix64: an invertible avalanche of all 64 bits.
    w ^= w >> 33;
    w *= 0xff51afd7ed558ccdull;
    w ^= w >> 33;
    w *= 0xc4ceb9fe1a85ec53ull;
    w ^= w >> 33;
    state_ = (state_ ^ w) * kPrime;
  }
  static constexpr std::uint64_t kPrime = 1099511628211ull;  // FNV-1a prime
  std::uint64_t state_ = 1469598103934665603ull;  // FNV offset basis
};

/// Hash of a CSR matrix: dimensions, structure and exact value bits.
std::uint64_t hash_csr(const CsrMatrix& a);

}  // namespace aeropack::numeric

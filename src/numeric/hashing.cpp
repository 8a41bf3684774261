#include "numeric/hashing.hpp"

#include <cstring>

#include "numeric/sparse.hpp"

namespace aeropack::numeric {

StructuralHasher& StructuralHasher::add(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return add(bits);
}

StructuralHasher& StructuralHasher::add(std::string_view s) {
  add(static_cast<std::uint64_t>(s.size()));
  for (const char c : s) byte(static_cast<unsigned char>(c));
  return *this;
}

StructuralHasher& StructuralHasher::add(const std::vector<double>& v) {
  add(static_cast<std::uint64_t>(v.size()));
  for (const double d : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    word(bits);
  }
  return *this;
}

StructuralHasher& StructuralHasher::add(const std::vector<std::size_t>& v) {
  add(static_cast<std::uint64_t>(v.size()));
  for (const std::size_t s : v) word(static_cast<std::uint64_t>(s));
  return *this;
}

std::uint64_t hash_csr(const CsrMatrix& a) {
  StructuralHasher h;
  h.add(static_cast<std::uint64_t>(a.rows())).add(static_cast<std::uint64_t>(a.cols()));
  h.add(a.row_ptr()).add(a.col_idx()).add(a.values());
  return h.value();
}

}  // namespace aeropack::numeric

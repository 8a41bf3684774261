// Bitwise FEM assembly golden: the reduced (free-DOF) stiffness and mass
// matrices of every structural model family, frozen to the last bit. Each
// matrix is recorded as its size, its stored-entry count and a
// StructuralHasher digest of dimensions, pattern and exact value bits
// (numeric::hash_csr), split into two 32-bit halves so that each half
// round-trips exactly through a JSON double. Compared with finish(0.0): a
// change to the sparse builder that moved any entry's summation order, or
// any stored column, fails here even when every modal golden still holds at
// its 1e-9 tolerance.
//
// Models: the modal_plate graph's board (default 1.6 mm and 1.2 mm), the
// four Fig. 2 boards behind fig2_modal.json, a simply supported plate, a 2-D
// FrameModel (beams, lumped masses with rotary inertia, grounded and
// inter-node springs) and a 3-D Frame3D portal with lumped masses.
//
// Regenerate only for an intended change to assembly:
//   AEROPACK_UPDATE_GOLDEN=1 ctest -L verify -R FemAssemblyBitwise
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "fem/beam3d.hpp"
#include "fem/frame.hpp"
#include "fem/plate.hpp"
#include "materials/solid.hpp"
#include "numeric/hashing.hpp"
#include "numeric/sparse.hpp"
#include "verify/golden.hpp"

namespace af = aeropack::fem;
namespace am = aeropack::materials;
namespace an = aeropack::numeric;
namespace av = aeropack::verify;

namespace {

using Values = std::map<std::string, double>;

void record_matrix(Values& out, const std::string& key, const an::CsrMatrix& a) {
  const std::uint64_t digest = an::hash_csr(a);
  out[key + ".rows"] = static_cast<double>(a.rows());
  out[key + ".nonzeros"] = static_cast<double>(a.nonzeros());
  out[key + ".digest_hi"] = static_cast<double>(digest >> 32);
  out[key + ".digest_lo"] = static_cast<double>(digest & 0xffffffffull);
}

template <typename Model>
void record_model(Values& out, const std::string& key, const Model& model) {
  an::CsrMatrix k, m;
  model.reduced_sparse(k, m);
  record_matrix(out, key + ".k", k);
  record_matrix(out, key + ".m", m);
}

/// The board the modal_plate scenario graph builds with default placement.
af::PlateModel modal_plate_board(double thickness) {
  af::PlateModel p(0.16, 0.10, thickness, am::fr4(), 8, 5);
  p.set_edge(af::EdgeSupport::Clamped, true, true, true, true);
  p.add_smeared_mass(2.5);
  p.add_point_mass(0.05, 0.05, 0.18);
  p.add_doubler(0.03, 0.13, 0.02, 0.08, 1.8);
  return p;
}

/// The Fig. 2 power-supply board of the golden regression suite.
af::PlateModel fig2_board(double thickness, double doubler_factor) {
  af::PlateModel p(0.16, 0.10, thickness, am::fr4(), 8, 5);
  p.set_edge(af::EdgeSupport::Clamped, true, true, true, true);
  p.add_smeared_mass(2.5);
  p.add_point_mass(0.05, 0.05, 0.18);
  p.add_point_mass(0.11, 0.05, 0.09);
  if (doubler_factor > 1.0) p.add_doubler(0.03, 0.13, 0.02, 0.08, doubler_factor);
  return p;
}

af::PlateModel simply_supported_plate() {
  af::PlateModel p(0.30, 0.20, 2e-3, am::fr4(), 10, 8);
  p.set_edge(af::EdgeSupport::SimplySupported, true, true, true, true);
  return p;
}

/// Equipment bracket: a clamped L of beams carrying a component with
/// rotary inertia, a grounded isolator spring and a spring between nodes.
af::FrameModel bracket_frame() {
  const auto mat = am::aluminum_6061();
  const auto s = af::BeamSection::rectangle(0.02, 0.004);
  af::FrameModel f;
  std::size_t prev = f.add_node(0.0, 0.0);
  f.fix_all(prev);
  for (std::size_t i = 1; i <= 4; ++i) {
    const std::size_t node = f.add_node(0.1 * static_cast<double>(i), 0.0);
    f.add_beam(prev, node, mat, s);
    prev = node;
  }
  const std::size_t corner = prev;
  for (std::size_t i = 1; i <= 3; ++i) {
    const std::size_t node = f.add_node(0.4, 0.08 * static_cast<double>(i));
    f.add_beam(prev, node, mat, s);
    prev = node;
  }
  f.add_mass(prev, 0.35, 2e-4);
  f.add_mass(corner, 0.12);
  f.add_ground_spring(prev, af::Dof::Uy, 4.0e4);
  f.add_spring(1, corner, af::Dof::Ux, 1.5e5);
  return f;
}

af::Frame3D portal_frame() {
  const auto mat = am::aluminum_6061();
  const auto s = af::Section3D::tube(0.02, 0.002);
  af::Frame3D f;
  const auto b1 = f.add_node(0, 0, 0);
  const auto b2 = f.add_node(0.4, 0, 0);
  const auto m1 = f.add_node(0, 0, 0.15);
  const auto m2 = f.add_node(0.4, 0, 0.15);
  const auto t1 = f.add_node(0, 0, 0.3);
  const auto t2 = f.add_node(0.4, 0, 0.3);
  const auto mid = f.add_node(0.2, 0, 0.3);
  f.fix_all(b1);
  f.fix_all(b2);
  f.add_beam(b1, m1, mat, s);
  f.add_beam(m1, t1, mat, s);
  f.add_beam(b2, m2, mat, s);
  f.add_beam(m2, t2, mat, s);
  f.add_beam(t1, mid, mat, s);
  f.add_beam(mid, t2, mat, s);
  f.add_mass(mid, 1.2);
  f.add_mass(t1, 0.4);
  return f;
}

Values run_all() {
  Values out;
  record_model(out, "modal_plate_1.6mm", modal_plate_board(1.6e-3));
  record_model(out, "modal_plate_1.2mm", modal_plate_board(1.2e-3));
  record_model(out, "fig2_1.6mm_bare", fig2_board(1.6e-3, 1.0));
  record_model(out, "fig2_2.4mm", fig2_board(2.4e-3, 1.0));
  record_model(out, "fig2_2.4mm_doubler_x1.8", fig2_board(2.4e-3, 1.8));
  record_model(out, "fig2_3.2mm_doubler_x1.8", fig2_board(3.2e-3, 1.8));
  record_model(out, "ss_plate", simply_supported_plate());
  record_model(out, "bracket_frame", bracket_frame());
  record_model(out, "portal_frame3d", portal_frame());
  return out;
}

}  // namespace

TEST(FemAssemblyBitwise, EveryReducedPencilMatchesItsRecordedBits) {
  av::GoldenRecorder rec("fem_assembly_bitwise", AEROPACK_GOLDEN_DIR);
  for (const auto& [key, value] : run_all()) rec.record(key, value);
  std::string joined;
  for (const auto& line : rec.finish(0.0)) joined += "\n  " + line;
  EXPECT_TRUE(joined.empty()) << rec.path() << ":" << joined;
}

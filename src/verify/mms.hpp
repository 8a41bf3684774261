// Method-of-manufactured-solutions (MMS) harness for the finite-volume
// conduction solver. An analytic temperature field T(x,y,z) (optionally
// decaying in time) is injected together with the source and boundary data
// that make it an exact solution of the continuous problem; the solver is
// run on a grid-refinement ladder and the observed convergence order is the
// slope of log(L2 error) vs log(h) fitted with numeric::polyfit.
//
// The FV scheme (cell-centered, half-cell Dirichlet coupling, midpoint
// source quadrature) is formally second order; the verification tier asserts
// the observed order stays >= ~1.9 for every code path (steady + transient,
// harmonic + arithmetic face conductances, uniform + smoothly graded k).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "numeric/polyfit.hpp"
#include "thermal/fv.hpp"

namespace aeropack::verify {

/// A steady manufactured problem on the box [0,lx]x[0,ly]x[0,lz]. The
/// boundary values of `temperature` must be constant per face (the canonical
/// cases use a product-of-sines bump that vanishes on every face), so the
/// discrete problem needs only the six default Dirichlet conditions.
struct MmsCase {
  std::string name;
  double lx = 1.0, ly = 1.0, lz = 1.0;
  std::function<double(double, double, double)> temperature;   ///< exact T [K]
  std::function<double(double, double, double)> conductivity;  ///< isotropic k [W/m K]
  std::function<double(double, double, double)> source;        ///< q''' = -div(k grad T) [W/m^3]
  double boundary_temperature = 300.0;  ///< T on all six faces [K]
};

/// Product-of-sines bump over a uniform conductivity:
///   T = t0 + amp sin(pi x/lx) sin(pi y/ly) sin(pi z/lz),  k = const.
MmsCase mms_uniform_k(double lx, double ly, double lz, double k, double t0, double amp);

/// Same temperature field over a smoothly graded conductivity
/// k(x) = k0 (1 + beta x/lx); the source picks up the grad-k cross term, so
/// harmonic and arithmetic face conductances genuinely differ on this case.
MmsCase mms_graded_k(double lx, double ly, double lz, double k0, double beta, double t0,
                     double amp);

/// One rung of the refinement ladder.
struct MmsPoint {
  std::size_t n = 0;       ///< cells per axis
  double h = 0.0;          ///< representative spacing lx/n
  double l2_error = 0.0;   ///< volume-weighted L2 error vs the exact field
  double max_error = 0.0;
};

struct MmsReport {
  std::string case_name;
  thermal::FaceConductanceScheme scheme = thermal::FaceConductanceScheme::HarmonicMean;
  std::vector<MmsPoint> ladder;
  double observed_order = 0.0;  ///< slope of log(l2_error) vs log(h)
  double fit_r_squared = 0.0;
};

/// The manufactured steady problem on an n^3 uniform grid: conductivity
/// and midpoint-rule sources from `c`, every face at its boundary value.
thermal::FvModel mms_steady_model(const MmsCase& c, std::size_t n);

/// Run the steady ladder: for each n in `ns`, solve the manufactured problem
/// on an n^3 uniform grid and measure the error against the exact field at
/// cell centers. `ns` must contain at least two rungs.
MmsReport mms_steady_order(const MmsCase& c, const std::vector<std::size_t>& ns,
                           thermal::FaceConductanceScheme scheme,
                           const numeric::IterativeOptions& linear = {10000, 1e-13});

/// Transient ladder riding the exact decaying eigenmode of the heat equation
/// on the unit box:
///   T(x,t) = t0 + amp e^{-lambda t} sin(pi x/lx) sin(pi y/ly) sin(pi z/lz),
///   lambda = (k/rho_cp) pi^2 (1/lx^2 + 1/ly^2 + 1/lz^2),
/// which needs no source term. Implicit Euler is O(dt), so each rung refines
/// the step as dt ~ h^2 (steps = steps0 (n/n0)^2) to keep the measured
/// spatial order clean; the error at t_end is compared in the weighted L2
/// norm as in the steady ladder.
MmsReport mms_transient_order(double lx, double ly, double lz, double k, double rho_cp,
                              double t0, double amp, double t_end,
                              const std::vector<std::size_t>& ns, std::size_t steps0,
                              thermal::FaceConductanceScheme scheme,
                              const numeric::IterativeOptions& linear = {10000, 1e-13});

/// Slope of log(l2_error) vs log(h) (degree-1 polyfit); shared by both
/// ladders and reusable for any external convergence study.
double observed_order(const std::vector<MmsPoint>& ladder, double* r_squared = nullptr);

/// One-line ladder summary ("n=8 h=1.25e-01 l2=3.2e-02 ...") for assertion
/// failure messages.
std::string describe(const MmsReport& report);

}  // namespace aeropack::verify

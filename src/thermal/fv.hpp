// Structured 3-D finite-volume heat conduction solver — the toolkit's
// stand-in for the finite-volume CFD code (FloTHERM) the paper uses for
// Level-2/3 thermal design. Conjugate convection is represented by film
// coefficients on boundary faces (fixed h or a natural-convection
// correlation re-evaluated each Picard pass), which is exactly how the
// paper's design levels use the CFD tool: board/box conduction with
// film-coefficient boundaries.
//
// Grid: tensor-product cells, per-cell anisotropic conductivity, volumetric
// sources. Face conductances use the harmonic mean of cell conductivities
// (option: arithmetic, kept for the ablation bench). Steady solves assemble
// an SPD system solved by preconditioned CG; transient marches are implicit
// Euler through FvTransientStepper (an undriven march is the null drive).
//
// All temperatures are absolute [K].
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "materials/solid.hpp"
#include "numeric/dense.hpp"
#include "numeric/sparse.hpp"
#include "numeric/stencil.hpp"
#include "thermal/convection.hpp"

namespace aeropack::numeric {
class AmgHierarchy;
}  // namespace aeropack::numeric

namespace aeropack::thermal {

/// Cell count from which FvModel steady solves precondition CG with
/// aggregation multigrid (numeric/amg.hpp) instead of Jacobi: the smallest
/// measured size from which AMG-PCG beats Jacobi-CG at every measured
/// thread count on every measured system of that size or larger
/// (bench_sparse_kernels prints it; "amg_crossover_cells" in
/// BENCH_sparse_kernels.json). The binding system is the all-Dirichlet
/// graded-k MMS cube, which Jacobi-CG solves in about 100 iterations at
/// 24^3 (13824 cells), where AMG does not win at 4 threads.
inline constexpr std::size_t kAmgMinCells = 20480;

/// Tensor-product grid: cell sizes along each axis.
class FvGrid {
 public:
  FvGrid(numeric::Vector dx, numeric::Vector dy, numeric::Vector dz);
  /// Uniform grid over a box of size (lx, ly, lz) with (nx, ny, nz) cells.
  static FvGrid uniform(double lx, double ly, double lz, std::size_t nx, std::size_t ny,
                        std::size_t nz);

  std::size_t nx() const { return dx_.size(); }
  std::size_t ny() const { return dy_.size(); }
  std::size_t nz() const { return dz_.size(); }
  std::size_t cell_count() const { return nx() * ny() * nz(); }

  std::size_t index(std::size_t i, std::size_t j, std::size_t k) const {
    return i + nx() * (j + ny() * k);
  }
  double dx(std::size_t i) const { return dx_[i]; }
  double dy(std::size_t j) const { return dy_[j]; }
  double dz(std::size_t k) const { return dz_[k]; }
  double cell_volume(std::size_t i, std::size_t j, std::size_t k) const {
    return dx_[i] * dy_[j] * dz_[k];
  }
  /// Cell-center coordinate along x (similarly y, z).
  double x_center(std::size_t i) const;
  double y_center(std::size_t j) const;
  double z_center(std::size_t k) const;
  double lx() const;
  double ly() const;
  double lz() const;

 private:
  numeric::Vector dx_, dy_, dz_;
};

/// Axis-aligned index box [i0, i1) x [j0, j1) x [k0, k1) for region setters.
struct CellRange {
  std::size_t i0 = 0, i1 = 0, j0 = 0, j1 = 0, k0 = 0, k1 = 0;
};

enum class Face { XMin, XMax, YMin, YMax, ZMin, ZMax };

enum class BoundaryKind {
  Adiabatic,
  FixedTemperature,
  Convection,           ///< fixed film coefficient + sink temperature
  ConvectionRadiation,  ///< fixed h + linearized radiation to the same sink
  NaturalConvection,    ///< h from a plate correlation, re-evaluated per pass
  HeatFlux,             ///< prescribed flux [W/m^2], positive into the body
};

struct BoundaryCondition {
  BoundaryKind kind = BoundaryKind::Adiabatic;
  double temperature = 293.15;  ///< sink / prescribed temperature [K]
  double h = 0.0;               ///< film coefficient [W/m^2 K]
  double flux = 0.0;            ///< [W/m^2]
  double emissivity = 0.0;      ///< for ConvectionRadiation
  SurfaceOrientation orientation = SurfaceOrientation::Vertical;  ///< NaturalConvection
  double characteristic_length = 0.1;                             ///< NaturalConvection [m]
  double pressure = 101325.0;                                     ///< NaturalConvection [Pa]

  static BoundaryCondition adiabatic() { return {}; }
  static BoundaryCondition fixed(double t_k);
  static BoundaryCondition convection(double h, double t_k);
  static BoundaryCondition convection_radiation(double h, double t_k, double emissivity);
  static BoundaryCondition natural(SurfaceOrientation o, double length, double t_k,
                                   double pressure = 101325.0);
  static BoundaryCondition heat_flux(double flux);
};

enum class FaceConductanceScheme { HarmonicMean, ArithmeticMean };

struct FvOptions {
  FaceConductanceScheme scheme = FaceConductanceScheme::HarmonicMean;
  std::size_t max_picard_iterations = 60;
  double picard_tolerance = 1e-6;  ///< max |dT| across passes [K]
  numeric::IterativeOptions linear;
};

struct FvSolution {
  numeric::Vector temperatures;  ///< per cell [K]
  std::size_t picard_iterations = 0;
  std::size_t linear_iterations = 0;  ///< total inner CG iterations
  /// Number of structural assemblies performed. With the cached fast path
  /// this is 1 per solve regardless of Picard pass count — only boundary
  /// values are rewritten in place between passes.
  std::size_t structure_assemblies = 0;
  bool converged = false;
  double energy_residual = 0.0;  ///< |sources - boundary outflow| [W]
  double max_temperature = 0.0;
  double min_temperature = 0.0;
};

struct FvTransientSolution {
  numeric::Vector times;
  std::vector<numeric::Vector> temperatures;
  std::size_t linear_iterations = 0;       ///< total inner CG iterations
  std::size_t structure_assemblies = 0;    ///< symbolic assemblies (1 with caching)
};

/// Time-varying environment driver for a transient march. The null drive
/// (FvDrive{}, which the undriven solve_transient overloads pass) keeps the
/// environment stored on the model. A drive makes the environment a
/// function of time: every step re-resolves each boundary condition through
/// `boundary` and scales the volumetric sources by `power_scale`, both
/// evaluated at the step's end time (implicit Euler), without touching the
/// assembled structure. The mission layer (aeropack::mission) builds drives
/// from mission::Profile; hand-written drives are equally valid.
struct FvDrive {
  /// Transform a model boundary condition for mission time `t`. Each
  /// rewrite calls it only when a boundary cell-face's stored condition
  /// differs bit for bit from the last one resolved on the same Face, and
  /// reuses that result otherwise, so a face holding a few distinct
  /// conditions costs a few calls per step, not one per cell-face. It must
  /// therefore be pure (same inputs, same output), which also keeps the
  /// march deterministic. Null = boundaries as stored on the model.
  std::function<BoundaryCondition(double t, Face face, const BoundaryCondition& bc)> boundary;
  /// Multiplier on volumetric sources at time `t` (prescribed boundary
  /// fluxes are environment inputs, not dissipation — they are never
  /// scaled). Null = 1.
  std::function<double(double t)> power_scale;
};

/// The assembled steady linear system A T = b of a model whose boundary
/// conditions are all temperature-independent (Adiabatic, FixedTemperature,
/// fixed-h Convection, HeatFlux). This is the operator the compact-model
/// reduction pipeline (aeropack::rom) projects onto its snapshot basis: the
/// matrix is SPD with the 7-point structure, handed out as CSR (the
/// to_csr() of the rewritten stencil operator), and the right-hand side is
/// affine in the boundary sink temperatures and source powers.
struct LinearSteadySystem {
  numeric::CsrMatrix matrix;  ///< SPD conduction + boundary-film operator
  numeric::Vector rhs;        ///< sources + flux terms + film * sink terms [W]
};

/// The immutable structural half of an FV solve: the 7-point stencil operator
/// of every temperature-independent internal coefficient (face conductances,
/// contact interfaces) — and nothing that depends on sources, boundary
/// conditions or a time step, which are applied per solve into a private
/// copy of its diagonal. Steady solves, marches at any step and models that differ only
/// in loads/boundaries therefore share one FvAssembly, which is what the
/// scenario-service ArtifactCache exploits across a qualification campaign.
///
/// Grids of at least kAmgMinCells cells also carry the multigrid hierarchy
/// of the boundary-free couplings; boundary films move only the diagonal,
/// which each steady solve folds into a private AmgWorkspace.
///
/// Shareability contract: all fields, the hierarchy included, are written
/// once by FvModel::build_assembly and never mutated afterwards; concurrent
/// solves on distinct ExecutionContexts may read one assembly freely, and a
/// solve on a cached assembly is bitwise identical to the cold-start solve
/// that would have built it (gated by tests/svc/test_artifact_reuse.cpp).
struct FvAssembly {
  /// Face couplings -g and the boundary-free diagonal, each row's couplings
  /// summed in CSR column order (-z, -y, -x, +x, +y, +z).
  numeric::StencilMatrix matrix;
  std::uint64_t structural_hash = 0;    ///< FvModel::structural_hash at build time
  /// Multigrid hierarchy of `matrix`; null below kAmgMinCells cells.
  std::shared_ptr<const numeric::AmgHierarchy> amg;
  /// Approximate resident size, for cost-aware cache eviction.
  std::size_t cost_bytes() const;
};

class FvModel {
 public:
  explicit FvModel(FvGrid grid);

  const FvGrid& grid() const { return grid_; }

  /// Fill the whole domain with a material.
  void set_material(const materials::SolidMaterial& m);
  /// Fill an index sub-box with a material.
  void set_material(const CellRange& r, const materials::SolidMaterial& m);
  /// Override per-axis conductivities in a sub-box (e.g. heat-pipe drain:
  /// very high kx). rho_cp untouched.
  void set_conductivity(const CellRange& r, double kx, double ky, double kz);

  /// Area-specific contact resistance [K m^2/W] on the z-face between cell
  /// layers k_plane and k_plane+1 (a TIM or bond line between a board and
  /// its drain). Applied over the whole plane; call once per interface.
  void add_interface_z(std::size_t k_plane, double specific_resistance);

  /// Add total power [W] uniformly distributed over a sub-box.
  void add_power(const CellRange& r, double watts);
  /// Add a volumetric source field: `qv(x, y, z)` [W/m^3] evaluated at each
  /// cell center (midpoint rule) and scaled by the cell volume. Used by the
  /// manufactured-solutions harness to inject spatially varying sources.
  void add_power_density(const std::function<double(double, double, double)>& qv);
  /// Clear all sources (for power sweeps).
  void clear_power();

  /// Default condition for one outer face of the domain.
  void set_boundary(Face f, const BoundaryCondition& bc);
  /// Override the condition on a rectangular patch of a face. The patch is
  /// specified by the in-plane index range of the face's cells.
  void set_boundary_patch(Face f, const CellRange& r, const BoundaryCondition& bc);
  /// Drop every patch override, restoring the per-face default everywhere.
  /// The compact-model builder (aeropack::rom) uses this to rebase a copied
  /// model onto its own port layout.
  void clear_boundary_overrides();

  FvSolution solve_steady(const FvOptions& opts = {}) const;

  /// Hash of everything an assembly depends on: grid geometry, per-cell
  /// conductivities and capacities, z-interfaces and the face-conductance
  /// scheme — and deliberately NOT sources or boundary conditions, which are
  /// per-solve inputs. Equal hashes guarantee build_assembly would produce
  /// bitwise-identical artifacts, so this is the ArtifactCache key for FV
  /// assemblies. Throws std::invalid_argument unless `inv_dt` is 0.
  std::uint64_t structural_hash(const FvOptions& opts = {}, double inv_dt = 0.0) const;

  /// Assemble the shareable structural artifact once (counts one
  /// "fv.structure_assemblies"), with the multigrid hierarchy from
  /// kAmgMinCells cells. `inv_dt` must be 0, as for structural_hash.
  std::shared_ptr<const FvAssembly> build_assembly(const FvOptions& opts = {},
                                                   double inv_dt = 0.0) const;

  /// Steady solve on a pre-built (possibly cache-shared) assembly: skips
  /// symbolic assembly entirely (structure_assemblies == 0 in the solution)
  /// and is bitwise identical to the assembling overload. Throws
  /// std::invalid_argument when the assembly's structural hash does not
  /// match this model at `opts` (it was built for different structure).
  FvSolution solve_steady(const std::shared_ptr<const FvAssembly>& assembly,
                          const FvOptions& opts = {}) const;

  /// Implicit Euler transient from a uniform initial temperature under the
  /// model's stored environment: the null-drive march below.
  FvTransientSolution solve_transient(double t_end, double dt, double t_initial,
                                      const FvOptions& opts = {}) const;

  /// Same, from a full per-cell initial field (needed by the
  /// manufactured-solutions transient ladder, whose exact initial state is
  /// spatially varying).
  FvTransientSolution solve_transient(double t_end, double dt,
                                      const numeric::Vector& initial_temperatures,
                                      const FvOptions& opts = {}) const;

  /// Driver-aware implicit Euler: boundary conditions and source scaling
  /// are re-resolved through `drive` at every step's end time. `dt` is
  /// clamped to `t_end` (a march shorter than one step degenerates to a
  /// single implicit step of size `t_end`); throws on non-positive `dt` or
  /// `t_end`. The capacity/dt term joins the diagonal during the per-step
  /// rewrite, so one cache-shared assembly serves every step size and is the
  /// same artifact steady solves use. A caller-supplied `assembly` must
  /// match structural_hash(opts) (std::invalid_argument otherwise); null
  /// assembles internally.
  FvTransientSolution solve_transient(double t_end, double dt,
                                      const numeric::Vector& initial_temperatures,
                                      const FvDrive& drive, const FvOptions& opts = {},
                                      std::shared_ptr<const FvAssembly> assembly = nullptr) const;

  /// Assemble the steady system A T = b once and hand it out. Only valid for
  /// models whose boundary conditions are all temperature-independent; throws
  /// std::invalid_argument when any boundary face is ConvectionRadiation or
  /// NaturalConvection (those linearize per Picard pass and have no single
  /// constant operator). Used by aeropack::rom for snapshot generation and
  /// Galerkin projection, and by the verification ladder for energy-norm
  /// error measurements.
  LinearSteadySystem linearize_steady(const FvOptions& opts = {}) const;

  /// Lumped thermal capacity rho*cp*V [J/K] of every cell, in cell index
  /// order — the diagonal capacitance operator of the transient problem.
  numeric::Vector cell_capacities() const;

  /// Highest cell temperature within a sub-box of a solution.
  double region_max(const numeric::Vector& temps, const CellRange& r) const;
  /// Volume-average temperature within a sub-box.
  double region_mean(const numeric::Vector& temps, const CellRange& r) const;

  /// Whole-domain range helper.
  CellRange all_cells() const;

 private:
  friend class FvTransientStepper;

  struct FaceBc {
    BoundaryCondition bc;  // per boundary cell-face
  };

  void check_range(const CellRange& r) const;
  const BoundaryCondition& boundary_for(Face f, std::size_t a, std::size_t b) const;

  /// Per-solve mutable state layered over an immutable (possibly shared)
  /// FvAssembly: a working copy of the operator (its diagonal; the
  /// couplings are shared) that every Picard pass and time step rewrites in
  /// place; the shared assembly is never touched.
  struct Workspace {
    std::shared_ptr<const FvAssembly> assembly;
    numeric::StencilMatrix matrix;  ///< diagonal: base + capacity + boundary films
  };

  Workspace make_workspace(std::shared_ptr<const FvAssembly> assembly) const;
  /// The one rewrite of every per-solve term: resets the workspace diagonal
  /// to the base diagonal and `rhs` to the power-scaled sources, then adds
  /// each boundary face's flux or film (linearized at `temps`), with
  /// conditions resolved through `drive` at time `t` (null = stored, scale
  /// 1). A non-null `capacity` (rho*cp*V per cell) adds the implicit-Euler
  /// terms of a step of 1/`inv_dt` from `temps`.
  void update_boundary_terms(Workspace& ws, const numeric::Vector& temps, numeric::Vector& rhs,
                             const FvDrive* drive = nullptr, double t = 0.0,
                             const numeric::Vector* capacity = nullptr,
                             double inv_dt = 0.0) const;
  FvSolution solve_steady_impl(const FvOptions& opts,
                               std::shared_ptr<const FvAssembly> assembly) const;
  double face_conductance_x(std::size_t i0, std::size_t i1, std::size_t j, std::size_t k,
                            FaceConductanceScheme scheme) const;
  double face_conductance_y(std::size_t j0, std::size_t j1, std::size_t i, std::size_t k,
                            FaceConductanceScheme scheme) const;
  double face_conductance_z(std::size_t k0, std::size_t k1, std::size_t i, std::size_t j,
                            FaceConductanceScheme scheme) const;
  /// Effective boundary conductance [W/K] of a boundary cell face, given the
  /// current surface-cell temperature estimate.
  double boundary_conductance(const BoundaryCondition& bc, double area, double half_thickness,
                              double k_cell, double t_cell) const;
  double energy_residual(const numeric::Vector& temps, const FvOptions& opts) const;

  FvGrid grid_;
  numeric::Vector kx_, ky_, kz_;   // per cell [W/m K]
  numeric::Vector rho_cp_;         // per cell [J/m^3 K]
  numeric::Vector source_;         // per cell [W]
  std::array<BoundaryCondition, 6> default_bc_{};
  std::vector<std::pair<std::size_t, double>> interfaces_z_;  // (plane, R'' [K m^2/W])
  // Per-face overrides: map from (face, a, b) flattened in-plane index.
  std::array<std::vector<std::optional<BoundaryCondition>>, 6> patch_bc_{};
};

/// Reusable driven implicit-Euler stepper over a (possibly cache-shared)
/// FvAssembly — the only FV transient path: every solve_transient overload
/// and every mission march runs it. This is the FV implementation of the
/// core::TransientSystem concept the unified transient engine
/// (core/transient_engine.hpp) marches: step() advances an arbitrary field
/// by an arbitrary dt — the capacity/dt term is applied per call, so the
/// step size may change between calls without any re-assembly — which is
/// exactly what step-doubling error control needs (one full step and two
/// half steps over the same structure). The stepper owns a private
/// workspace; the shared assembly is never mutated, so any number of
/// steppers may run concurrently on one cached assembly from distinct
/// ExecutionContexts.
///
/// The referenced model must outlive the stepper and stay unmodified while
/// it is in use (every step reads its sources and boundary conditions).
class FvTransientStepper {
 public:
  /// Build over `model`. A null `assembly` assembles the structure
  /// internally (structure_assemblies() == 1); a supplied one must match
  /// model.structural_hash(opts), else std::invalid_argument — the same
  /// validation as the cached steady solve.
  explicit FvTransientStepper(const FvModel& model, const FvOptions& opts = {},
                              std::shared_ptr<const FvAssembly> assembly = nullptr);

  /// One implicit Euler step of size `dt` ending at mission time `t_next`:
  /// rewrites the diagonal with capacity/dt plus boundary films resolved
  /// through `drive` at `t_next` (null = the model's stored conditions),
  /// then solves with CG warm-started from `temps`. `temps` is advanced in
  /// place; returns the CG iteration count. Throws on non-positive dt or a
  /// failed linear solve.
  std::size_t step(numeric::Vector& temps, double t_next, double dt, const FvDrive* drive);

  /// Attach (or detach with null) the environment drive the concept-form
  /// step() resolves per call. The drive must outlive its use; it is NOT
  /// part of any cache key — drives change boundary values, never operator
  /// structure (CONTRIBUTING.md "Driver hashing rules").
  void set_drive(const FvDrive* drive) { drive_ = drive; }

  // --- core::TransientSystem concept ------------------------------------
  std::size_t state_size() const { return capacity_.size(); }
  /// Concept-form step: same as the explicit-drive overload with the drive
  /// set through set_drive() (null = the model's stored conditions).
  std::size_t step(numeric::Vector& temps, double t_next, double dt) {
    return step(temps, t_next, dt, drive_);
  }
  /// Controller error metric: serial max-norm field difference [K].
  double error_norm(const numeric::Vector& a, const numeric::Vector& b) const;

  /// 1 when the constructor assembled, 0 when a shared assembly was used.
  std::size_t structure_assemblies() const { return structure_assemblies_; }
  const std::shared_ptr<const FvAssembly>& assembly() const { return ws_.assembly; }

 private:
  const FvModel* model_;
  FvOptions opts_;
  FvModel::Workspace ws_;
  numeric::Vector capacity_;  ///< rho*cp*V per cell (no dt factor)
  numeric::Vector rhs_;
  const FvDrive* drive_ = nullptr;
  std::size_t structure_assemblies_ = 0;
};

}  // namespace aeropack::thermal

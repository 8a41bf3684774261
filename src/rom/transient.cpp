#include "rom/transient.hpp"

#include <cmath>
#include <utility>

#include "core/transient_engine.hpp"
#include "obs/registry.hpp"

namespace aeropack::rom {

using numeric::Matrix;
using numeric::Vector;

namespace {
/// Factorization ring capacity: the adaptive march uses one dt per attempt
/// and fixed-dt marches one in all.
constexpr std::size_t kMaxDtFactors = 6;
}  // namespace

RomTransientStepper::RomTransientStepper(const RomModel& model, RomInputs base_inputs,
                                         RomDrive drive)
    : model_(&model),
      base_(std::move(base_inputs)),
      drive_(std::move(drive)),
      capacity_(RomModel::leading_block(model.c_r_, model.rank_)) {
  static thread_local obs::CounterHandle evals{"rom.transient_evals"};
  model_->check(base_);
  evals.add();
  b_base_ = model_->reduced_rhs(base_);
}

RomTransientStepper::RomTransientStepper(std::shared_ptr<const RomModel> model,
                                         RomInputs base_inputs, RomDrive drive)
    : RomTransientStepper(*model, std::move(base_inputs), std::move(drive)) {
  keepalive_ = std::move(model);
}

std::size_t RomTransientStepper::state_size() const { return model_->rank_; }

Vector RomTransientStepper::initial_state(double t_initial) const {
  const std::size_t rank = model_->rank_;
  Vector y(rank);
  for (std::size_t k = 0; k < rank; ++k) y[k] = t_initial * model_->ones_proj_[k];
  return y;
}

double RomTransientStepper::error_norm(const Vector& a, const Vector& b) const {
  // Reconstructed-field max-norm, computed without materializing the two
  // full fields: max_c |sum_k V(c,k) (a_k - b_k)|. Serial, deterministic.
  const Matrix& v = model_->basis_;
  const std::size_t n = v.rows();
  const std::size_t rank = model_->rank_;
  double err = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    double acc = 0.0;
    for (std::size_t k = 0; k < rank; ++k) acc += v(c, k) * (a[k] - b[k]);
    err = std::max(err, std::abs(acc));
  }
  return err;
}

const numeric::CholeskyFactorization& RomTransientStepper::factor_for(double dt) {
  for (const DtFactor& f : factors_)
    if (f.dt == dt) return f.factor;
  const double inv_dt = 1.0 / dt;
  const std::size_t rank = model_->rank_;
  Matrix m(rank, rank);
  for (std::size_t i = 0; i < rank; ++i)
    for (std::size_t j = 0; j < rank; ++j)
      m(i, j) = model_->c_r_(i, j) * inv_dt + model_->a_r_(i, j);
  numeric::CholeskyFactorization factor(m);
  if (factors_.size() < kMaxDtFactors) {
    factors_.push_back(DtFactor{dt, std::move(factor)});
    return factors_.back().factor;
  }
  factors_[next_slot_] = DtFactor{dt, std::move(factor)};
  const DtFactor& slot = factors_[next_slot_];
  next_slot_ = (next_slot_ + 1) % kMaxDtFactors;
  return slot.factor;
}

const Vector& RomTransientStepper::rhs_at(double t, Vector& scratch) const {
  // The undriven path reuses the base right-hand side computed once.
  if (!drive_.inputs) return b_base_;
  RomInputs in = drive_.inputs(t);
  model_->check(in);
  scratch = model_->reduced_rhs(in);
  return scratch;
}

void RomTransientStepper::rate(const Vector& y, double t, Vector& out) const {
  core::check_state_size("RomTransientStepper::rate", y.size(), model_->rank_);
  Vector b_driven;
  const Vector& b = rhs_at(t, b_driven);
  const std::size_t rank = model_->rank_;
  Vector f(rank);
  for (std::size_t i = 0; i < rank; ++i) {
    double acc = b[i];
    for (std::size_t j = 0; j < rank; ++j) acc -= model_->a_r_(i, j) * y[j];
    f[i] = acc;
  }
  out = capacity_.solve(f);
}

std::size_t RomTransientStepper::step(Vector& y, double t_next, double dt) {
  core::check_step_size("RomTransientStepper::step", dt);
  core::check_state_size("RomTransientStepper::step", y.size(), model_->rank_);
  static thread_local obs::CounterHandle steps_counter{"rom.transient_steps"};
  const double inv_dt = 1.0 / dt;
  const numeric::CholeskyFactorization& march = factor_for(dt);

  // Implicit Euler samples the environment at the step's end time.
  Vector b_driven;
  const Vector& b = rhs_at(t_next, b_driven);

  const std::size_t rank = model_->rank_;
  Vector rhs(rank, 0.0);
  for (std::size_t i = 0; i < rank; ++i) {
    double acc = b[i];
    for (std::size_t j = 0; j < rank; ++j) acc += model_->c_r_(i, j) * inv_dt * y[j];
    rhs[i] = acc;
  }
  y = march.solve(rhs);
  steps_counter.add();
  return 1;
}

}  // namespace aeropack::rom

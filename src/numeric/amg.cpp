#include "numeric/amg.hpp"

#include <algorithm>
#include <stdexcept>

#include "numeric/parallel.hpp"
#include "numeric/stencil.hpp"
#include "obs/registry.hpp"

namespace aeropack::numeric {

namespace {

/// Damped-Jacobi weight of the pre- and post-smoothing sweeps.
constexpr double kOmega = 2.0 / 3.0;
/// A neighbour is strong enough to pair with when its coupling reaches this
/// fraction of the row's strongest coupling.
constexpr double kStrength = 0.25;
/// Pairwise-matching passes per level: aggregates of up to 2^3 rows.
constexpr int kPairPasses = 3;
constexpr std::size_t kUnset = static_cast<std::size_t>(-1);

/// Off-diagonal couplings of one level in CSR form. A stored diagonal entry
/// (the fine matrix has one) is skipped by every reader.
struct Couplings {
  const std::vector<std::size_t>* row_ptr;
  const std::vector<std::size_t>* col;
  const std::vector<double>* val;
  std::size_t rows() const { return row_ptr->size() - 1; }
};

/// Owning off-diagonal CSR (Galerkin products).
struct OffDiag {
  std::vector<std::size_t> row_ptr{0};
  std::vector<std::size_t> col;
  std::vector<double> val;
  Couplings view() const { return {&row_ptr, &col, &val}; }
};

/// One pairwise-matching pass: rows in index order, each unmatched row pairs
/// with its strongest unmatched neighbour j when -a_ij >= kStrength times
/// the row's strongest coupling (the lowest index on ties, so the result
/// does not depend on storage order), else stays a singleton. Returns
/// row -> pair index; `pairs` receives the count.
std::vector<std::size_t> match_pairs(const Couplings& m, std::size_t& pairs) {
  const std::size_t n = m.rows();
  std::vector<std::size_t> agg(n, kUnset);
  pairs = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (agg[i] != kUnset) continue;
    double strongest = 0.0;
    for (std::size_t k = (*m.row_ptr)[i]; k < (*m.row_ptr)[i + 1]; ++k)
      if ((*m.col)[k] != i) strongest = std::max(strongest, -(*m.val)[k]);
    std::size_t best = kUnset;
    double best_s = 0.0;
    for (std::size_t k = (*m.row_ptr)[i]; k < (*m.row_ptr)[i + 1]; ++k) {
      const std::size_t j = (*m.col)[k];
      const double s = -(*m.val)[k];
      if (j == i || agg[j] != kUnset || s <= 0.0 || s < kStrength * strongest) continue;
      if (s > best_s || (s == best_s && j < best)) {
        best = j;
        best_s = s;
      }
    }
    agg[i] = pairs;
    if (best != kUnset) agg[best] = pairs;
    ++pairs;
  }
  return agg;
}

/// Members of each aggregate in ascending row order (counting sort).
void group_members(const std::vector<std::size_t>& agg, std::size_t aggregates,
                   std::vector<std::size_t>& member_ptr, std::vector<std::size_t>& members) {
  member_ptr.assign(aggregates + 1, 0);
  for (const std::size_t a : agg) ++member_ptr[a + 1];
  for (std::size_t a = 0; a < aggregates; ++a) member_ptr[a + 1] += member_ptr[a];
  members.resize(agg.size());
  std::vector<std::size_t> fill(member_ptr.begin(), member_ptr.end() - 1);
  for (std::size_t i = 0; i < agg.size(); ++i) members[fill[agg[i]]++] = i;
}

/// Galerkin product P^T M P under a piecewise-constant prolongation, in one
/// marker-array pass: coarse row I sums its members' couplings to every
/// other aggregate (in first-seen order). The fixed diagonal part of I is
/// its members' fixed parts plus the couplings inside I.
OffDiag galerkin(const Couplings& m, const std::vector<double>& fixed,
                 const std::vector<std::size_t>& agg,
                 const std::vector<std::size_t>& member_ptr,
                 const std::vector<std::size_t>& members, std::vector<double>& fixed_out) {
  const std::size_t nc = member_ptr.size() - 1;
  OffDiag out;
  out.row_ptr.reserve(nc + 1);
  fixed_out.assign(nc, 0.0);
  std::vector<std::size_t> marker(nc, kUnset);
  for (std::size_t ci = 0; ci < nc; ++ci) {
    const std::size_t row_start = out.col.size();
    double own = 0.0;
    for (std::size_t t = member_ptr[ci]; t < member_ptr[ci + 1]; ++t) {
      const std::size_t i = members[t];
      own += fixed[i];
      for (std::size_t k = (*m.row_ptr)[i]; k < (*m.row_ptr)[i + 1]; ++k) {
        const std::size_t j = (*m.col)[k];
        if (j == i) continue;
        const std::size_t cj = agg[j];
        const double v = (*m.val)[k];
        if (cj == ci) {
          own += v;
        } else if (marker[cj] == kUnset || marker[cj] < row_start) {
          marker[cj] = out.col.size();
          out.col.push_back(cj);
          out.val.push_back(v);
        } else {
          out.val[marker[cj]] += v;
        }
      }
    }
    fixed_out[ci] = own;
    out.row_ptr.push_back(out.col.size());
  }
  return out;
}

/// Sort each row's columns (insertion sort: coarse rows hold a few dozen
/// entries), as the coarsest level's CsrMatrix requires.
void sort_rows(OffDiag& m) {
  for (std::size_t r = 0; r + 1 < m.row_ptr.size(); ++r)
    for (std::size_t a = m.row_ptr[r] + 1; a < m.row_ptr[r + 1]; ++a)
      for (std::size_t b = a; b > m.row_ptr[r] && m.col[b - 1] > m.col[b]; --b) {
        std::swap(m.col[b - 1], m.col[b]);
        std::swap(m.val[b - 1], m.val[b]);
      }
}

}  // namespace

AmgHierarchy::AmgHierarchy(const CsrMatrix& a)
    : fine_rows_(a.rows()), fine_nonzeros_(a.nonzeros()) {
  if (a.rows() != a.cols() || a.rows() == 0)
    throw std::invalid_argument("AmgHierarchy: matrix must be square and non-empty");
  static thread_local obs::CounterHandle setups{"numeric.amg.setups"};
  setups.add();
  obs::ScopedTimer span("numeric.amg.setup");
  fine_diag_.assign(a.rows(), kUnset);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t k = a.row_ptr()[i]; k < a.row_ptr()[i + 1]; ++k)
      if (a.col_idx()[k] == i) fine_diag_[i] = k;
  if (std::find(fine_diag_.begin(), fine_diag_.end(), kUnset) != fine_diag_.end())
    throw std::invalid_argument("AmgHierarchy: a row has no diagonal entry");
  Couplings finer{&a.row_ptr(), &a.col_idx(), &a.values()};
  while (finer.rows() > kAmgCoarsestRows) {
    // Three pairwise passes, each matching and then multiplying out the
    // Galerkin couplings of the last; `agg` composes the pass maps. A finer
    // row's diagonal is all per solve, so its fixed part starts at zero.
    std::vector<std::size_t> agg(finer.rows());
    for (std::size_t i = 0; i < agg.size(); ++i) agg[i] = i;
    OffDiag op;
    std::vector<double> fixed(finer.rows(), 0.0);
    Couplings current = finer;
    for (int pass = 0; pass < kPairPasses; ++pass) {
      std::size_t pairs = 0;
      const std::vector<std::size_t> pair_of = match_pairs(current, pairs);
      for (std::size_t& g : agg) g = pair_of[g];
      std::vector<std::size_t> ptr, mem;
      group_members(pair_of, pairs, ptr, mem);
      std::vector<double> pair_fixed;
      op = galerkin(current, fixed, pair_of, ptr, mem, pair_fixed);
      fixed = std::move(pair_fixed);
      current = op.view();
    }
    const std::size_t aggregates = op.row_ptr.size() - 1;
    if (aggregates == finer.rows()) break;  // nothing coarsens: stop here
    sort_rows(op);
    Level level;
    level.agg = std::move(agg);
    group_members(level.agg, aggregates, level.member_ptr, level.members);
    level.row_ptr = std::move(op.row_ptr);
    level.col = std::move(op.col);
    level.val = std::move(op.val);
    level.diag_fixed = std::move(fixed);
    coarse_.push_back(std::move(level));
    const Level& made = coarse_.back();
    finer = Couplings{&made.row_ptr, &made.col, &made.val};
  }
}

AmgHierarchy::AmgHierarchy(const StencilMatrix& a) : AmgHierarchy(a.to_csr()) {}

std::size_t AmgHierarchy::rows(std::size_t level) const {
  if (level >= levels()) throw std::out_of_range("AmgHierarchy::rows");
  return level == 0 ? fine_rows_ : coarse_[level - 1].member_ptr.size() - 1;
}

std::size_t AmgHierarchy::cost_bytes() const {
  std::size_t bytes = sizeof(AmgHierarchy) + fine_diag_.size() * sizeof(std::size_t);
  for (const Level& l : coarse_)
    bytes += (l.agg.size() + l.member_ptr.size() + l.members.size() + l.row_ptr.size() +
              l.col.size()) * sizeof(std::size_t) +
             (l.val.size() + l.diag_fixed.size()) * sizeof(double);
  return bytes;
}

// --- AmgWorkspace -------------------------------------------------------------

/// One level's operator for a row sweep: the fine stencil or CSR matrix
/// (diagonal stored in place), or a coarse level's off-diagonal couplings
/// plus the workspace's refreshed diagonal.
struct AmgWorkspace::LevelOp {
  const StencilMatrix* stencil = nullptr;
  const CsrMatrix* csr = nullptr;
  const std::vector<std::size_t>* row_ptr = nullptr;
  const std::vector<std::size_t>* col = nullptr;
  const std::vector<double>* val = nullptr;
  const Vector* diag = nullptr;
};

/// Each row sums in its stored order, so the result is partition-independent.
template <typename RowFn>
void AmgWorkspace::for_each_row(const LevelOp& op, const Vector& x, RowFn&& fn) {
  if (op.stencil) {
    const StencilMatrix& a = *op.stencil;
    parallel_for(0, a.rows(), [&](std::size_t lo, std::size_t hi) {
      a.for_each_row(lo, hi, x, fn);
    }, grain::Work::elements(a.nonzeros(), grain::Cost::kSpmv));
    return;
  }
  if (op.csr) {
    const auto& rp = op.csr->row_ptr();
    const auto& ci = op.csr->col_idx();
    const auto& av = op.csr->values();
    parallel_for(0, op.csr->rows(), [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        double ax = 0.0;
        for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) ax += av[k] * x[ci[k]];
        fn(i, ax);
      }
    }, grain::Work::elements(op.csr->nonzeros(), grain::Cost::kSpmv));
    return;
  }
  const auto& rp = *op.row_ptr;
  const auto& ci = *op.col;
  const auto& av = *op.val;
  const Vector& d = *op.diag;
  parallel_for(0, d.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      double ax = d[i] * x[i];
      for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) ax += av[k] * x[ci[k]];
      fn(i, ax);
    }
  }, grain::Work::elements(ci.size() + d.size(), grain::Cost::kSpmv));
}

AmgWorkspace::AmgWorkspace(const AmgHierarchy& hierarchy) : h_(&hierarchy) {
  levels_.resize(h_->levels());
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const std::size_t n = h_->rows(l);
    LevelState& s = levels_[l];
    if (l > 0) {
      s.diag.assign(n, 0.0);
      s.rhs.assign(n, 0.0);
      s.sol.assign(n, 0.0);
    }
    if (l == 0 || l + 1 < levels_.size()) s.smooth.assign(n, 0.0);
    if (l > 0 && l + 1 < levels_.size())
      for (Vector* v : {&s.x, &s.c, &s.v, &s.r2, &s.d, &s.w}) v->assign(n, 0.0);
  }
}

void AmgWorkspace::refresh(const CsrMatrix& a) {
  if (a.rows() != h_->fine_rows_ || a.nonzeros() != h_->fine_nonzeros_)
    throw std::invalid_argument("AmgWorkspace::refresh: matrix does not match the hierarchy");
  obs::ScopedTimer span("numeric.amg.refresh");
  Vector d(a.rows());
  for (std::size_t i = 0; i < d.size(); ++i) d[i] = a.values()[h_->fine_diag_[i]];
  refresh_levels(d, a);
}

void AmgWorkspace::refresh(const StencilMatrix& a) {
  if (a.rows() != h_->fine_rows_ || a.nonzeros() != h_->fine_nonzeros_)
    throw std::invalid_argument("AmgWorkspace::refresh: matrix does not match the hierarchy");
  obs::ScopedTimer span("numeric.amg.refresh");
  refresh_levels(a.diagonal(), levels_.size() == 1 ? a.to_csr() : CsrMatrix());
}

void AmgWorkspace::refresh_levels(const Vector& fine_diag, const CsrMatrix& fine) {
  // Level by level: the diagonal (the caller's on the fine level), then the
  // damped-Jacobi scale. A coarse diagonal is the fixed intra-aggregate
  // coupling sum plus its members' finer diagonals, summed in member order.
  const auto diag_of = [&](std::size_t l, std::size_t i) {
    return l == 0 ? fine_diag[i] : levels_[l].diag[i];
  };
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    LevelState& s = levels_[l];
    const AmgHierarchy::Level* lv = l > 0 ? &h_->coarse_[l - 1] : nullptr;
    parallel_for(0, h_->rows(l), [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        double d = 0.0;
        if (lv) {
          d = lv->diag_fixed[i];
          for (std::size_t t = lv->member_ptr[i]; t < lv->member_ptr[i + 1]; ++t)
            d += diag_of(l - 1, lv->members[t]);
          s.diag[i] = d;
        } else {
          d = diag_of(0, i);
        }
        if (!(d > 0.0)) throw std::domain_error("AmgWorkspace::refresh: non-positive diagonal");
        if (!s.smooth.empty()) s.smooth[i] = kOmega / d;
      }
    }, grain::Work::elements(lv ? lv->members.size() : h_->rows(0), grain::Cost::kStream));
  }
  // Coarsest level: splice the diagonal into its sorted off-diagonal rows
  // and factor (at most kAmgCoarsestRows rows unless coarsening stalled).
  // Its entries sum to 1^T A 1 of the fine matrix (piecewise-constant
  // prolongation maps the coarse ones vector to the fine one).
  if (levels_.size() == 1) {
    coarsest_.emplace(fine);
    total_coupling_ = 0.0;
    for (const double v : fine.values()) total_coupling_ += v;
    return;
  }
  const AmgHierarchy::Level& lv = h_->coarse_.back();
  const Vector& d = levels_.back().diag;
  const std::size_t nc = d.size();
  std::vector<std::size_t> row_ptr(nc + 1, 0), col;
  std::vector<double> val;
  col.reserve(lv.col.size() + nc);
  val.reserve(lv.col.size() + nc);
  for (std::size_t i = 0; i < nc; ++i) {
    bool placed = false;
    for (std::size_t k = lv.row_ptr[i]; k < lv.row_ptr[i + 1]; ++k) {
      if (!placed && lv.col[k] > i) {
        col.push_back(i);
        val.push_back(d[i]);
        placed = true;
      }
      col.push_back(lv.col[k]);
      val.push_back(lv.val[k]);
    }
    if (!placed) {
      col.push_back(i);
      val.push_back(d[i]);
    }
    row_ptr[i + 1] = col.size();
  }
  total_coupling_ = 0.0;
  for (const double v : val) total_coupling_ += v;
  coarsest_.emplace(CsrMatrix(nc, nc, std::move(row_ptr), std::move(col), std::move(val)));
}

void AmgWorkspace::apply(const CsrMatrix& a, const Vector& r, Vector& x, Vector& z) {
  LevelOp fine;
  fine.csr = &a;
  apply_fine(fine, a.rows(), r, x, z);
}

void AmgWorkspace::apply(const StencilMatrix& a, const Vector& r, Vector& x, Vector& z) {
  LevelOp fine;
  fine.stencil = &a;
  apply_fine(fine, a.rows(), r, x, z);
}

void AmgWorkspace::apply_fine(const LevelOp& fine, std::size_t rows, const Vector& r,
                              Vector& x, Vector& z) {
  if (!coarsest_) throw std::logic_error("AmgWorkspace::apply: refresh() first");
  if (r.size() != h_->fine_rows_ || rows != h_->fine_rows_ || x.size() != r.size())
    throw std::invalid_argument("AmgWorkspace::apply: size mismatch");
  if (&z == &r || &z == &x) throw std::invalid_argument("AmgWorkspace::apply: z aliases r or x");
  z.resize(r.size());
  if (levels_.size() == 1) {
    z = coarsest_->solve(r);
    return;
  }
  cycle(0, &fine, r, x, z);
}

void AmgWorkspace::cycle(std::size_t level, const LevelOp* fine, const Vector& r, Vector& x,
                         Vector& z) {
  ++cycles_;
  LevelState& s = levels_[level];
  LevelState& next = levels_[level + 1];
  const AmgHierarchy::Level& agg = h_->coarse_[level];
  LevelOp op;
  if (fine) {
    op = *fine;
  } else {
    const AmgHierarchy::Level& lv = h_->coarse_[level - 1];
    op = LevelOp{nullptr, nullptr, &lv.row_ptr, &lv.col, &lv.val, &s.diag};
  }
  const std::size_t n = r.size();
  // The residual of the pre-smoothed iterate (parked in z, which is written
  // last) is restricted by a gather over each aggregate's members in their
  // fixed order, reading each of the n finer rows once.
  for_each_row(op, x, [&](std::size_t i, double ax) { z[i] = r[i] - ax; });
  parallel_for(0, next.rhs.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t c = lo; c < hi; ++c) {
      double sum = 0.0;
      for (std::size_t k = agg.member_ptr[c]; k < agg.member_ptr[c + 1]; ++k)
        sum += z[agg.members[k]];
      next.rhs[c] = sum;
    }
  }, grain::Work::elements(n, grain::Cost::kStream));
  if (level + 2 == levels_.size()) {
    next.sol = coarsest_->solve(next.rhs);
  } else {
    kcycle(level + 1);
  }
  // Prolongation (piecewise constant), then post-smoothing.
  parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) x[i] += next.sol[agg.agg[i]];
  }, grain::Work::elements(n, grain::Cost::kStream));
  for_each_row(op, x,
               [&](std::size_t i, double ax) { z[i] = x[i] + s.smooth[i] * (r[i] - ax); });
}

void AmgWorkspace::presmoothed_cycle(std::size_t level, const Vector& r, Vector& z) {
  LevelState& s = levels_[level];
  parallel_for(0, r.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) s.x[i] = s.smooth[i] * r[i];
  }, grain::Work::elements(r.size(), grain::Cost::kStream));
  cycle(level, nullptr, r, s.x, z);
}
void AmgWorkspace::kcycle(std::size_t level) {
  // Two flexible-CG steps on A_l e = rhs from e = 0, each preconditioned by
  // one level cycle (Notay & Vassilevski's K-cycle).
  LevelState& s = levels_[level];
  const AmgHierarchy::Level& lv = h_->coarse_[level - 1];
  const LevelOp op{nullptr, nullptr, &lv.row_ptr, &lv.col, &lv.val, &s.diag};
  const std::size_t n = s.rhs.size();
  presmoothed_cycle(level, s.rhs, s.c);
  for_each_row(op, s.c, [&](std::size_t i, double ax) { s.v[i] = ax; });
  const double rho1 = parallel_dot(s.c, s.v);
  const double alpha1 = parallel_dot(s.c, s.rhs);
  if (!(rho1 > 0.0)) {
    std::fill(s.sol.begin(), s.sol.end(), 0.0);
    return;
  }
  const double a1 = alpha1 / rho1;
  parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) s.r2[i] = s.rhs[i] - a1 * s.v[i];
  }, grain::Work::elements(n, grain::Cost::kStream));
  presmoothed_cycle(level, s.r2, s.d);
  for_each_row(op, s.d, [&](std::size_t i, double ax) { s.w[i] = ax; });
  const double gamma = parallel_dot(s.d, s.v);
  const double beta = parallel_dot(s.d, s.w);
  const double alpha2 = parallel_dot(s.d, s.r2);
  const double rho2 = beta - gamma * gamma / rho1;
  // A second direction with no energy left keeps the first step alone.
  const double cd = rho2 > 0.0 ? alpha2 / rho2 : 0.0;
  const double cc = rho2 > 0.0 ? a1 - gamma * alpha2 / (rho1 * rho2) : a1;
  parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) s.sol[i] = cc * s.c[i] + cd * s.d[i];
  }, grain::Work::elements(n, grain::Cost::kStream));
}

}  // namespace aeropack::numeric

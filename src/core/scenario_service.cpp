#include "core/scenario_service.hpp"

#include <chrono>
#include <exception>
#include <stdexcept>
#include <utility>

#include "core/seb.hpp"
#include "fem/modal.hpp"
#include "fem/plate.hpp"
#include "materials/solid.hpp"
#include "numeric/hashing.hpp"
#include "obs/registry.hpp"
#include "thermal/fv.hpp"

namespace aeropack::core {

namespace {

// ---- built-in graph: fv_slab_steady -------------------------------------
//
// The qualification-campaign FV slab (bench fv_scenario geometry). Params
// shape the grid; the heat load and the two sink temperatures are deltas,
// so every load/boundary variant of one grid shares a single FvAssembly
// through the artifact cache.
//   params:     nx, ny, nz (16/4/4), lx, ly, lz (0.1/0.02/0.01 m)
//   loads:      power_w (5)
//   boundaries: t_cold (300), t_hot (320)
std::map<std::string, double> fv_slab_steady(const ScenarioSpec& spec, ExecutionContext& ctx) {
  namespace at = aeropack::thermal;
  const std::size_t nx = count_or(spec.params, "nx", 16, 1);
  const std::size_t ny = count_or(spec.params, "ny", 4, 1);
  const std::size_t nz = count_or(spec.params, "nz", 4, 1);
  at::FvModel slab(at::FvGrid::uniform(value_or(spec.params, "lx", 0.1),
                                       value_or(spec.params, "ly", 0.02),
                                       value_or(spec.params, "lz", 0.01), nx, ny, nz));
  slab.set_material(materials::aluminum_6061());
  slab.add_power({0, nx, 0, ny, 0, nz}, value_or(spec.loads, "power_w", 5.0));
  slab.set_boundary(at::Face::XMin,
                    at::BoundaryCondition::fixed(kelvin_or(spec.boundaries, "t_cold", 300.0)));
  slab.set_boundary(at::Face::XMax,
                    at::BoundaryCondition::fixed(kelvin_or(spec.boundaries, "t_hot", 320.0)));

  const at::FvOptions fv_opts;
  at::FvSolution sol;
  if (ArtifactCache* cache = ctx.artifact_cache()) {
    const auto assembly = cache->get_or_build<at::FvAssembly>(
        slab.structural_hash(fv_opts),
        [&] { return slab.build_assembly(fv_opts); },
        [](const at::FvAssembly& a) { return a.cost_bytes(); });
    sol = slab.solve_steady(assembly, fv_opts);
  } else {
    sol = slab.solve_steady(fv_opts);
  }
  return {{"t_max", sol.max_temperature},
          {"t_min", sol.min_temperature},
          {"energy_residual", sol.energy_residual}};
}

// ---- built-in graph: modal_plate ----------------------------------------
//
// Fig. 2 placement variant (bench modal_scenario geometry): the heavy
// component slides along the board. Point masses perturb M only, so every
// placement variant shares one stiffness matrix — and, at shift 0, one
// cached shift-invert factorization of K. Mode counts whose solve takes the
// exact pass (fem::modal_iterates false) build no factorization.
//   params: mass_x, mass_y (0.05/0.05 m), mass_kg (0.18),
//           thickness (1.6e-3 m), smeared_kg (2.5), n_modes (6)
std::map<std::string, double> modal_plate(const ScenarioSpec& spec, ExecutionContext& ctx) {
  namespace af = aeropack::fem;
  af::PlateModel board(0.16, 0.10, value_or(spec.params, "thickness", 1.6e-3),
                       materials::fr4(), 8, 5);
  board.set_edge(af::EdgeSupport::Clamped, true, true, true, true);
  board.add_smeared_mass(value_or(spec.params, "smeared_kg", 2.5));
  board.add_point_mass(value_or(spec.params, "mass_x", 0.05),
                       value_or(spec.params, "mass_y", 0.05),
                       value_or(spec.params, "mass_kg", 0.18));
  board.add_doubler(0.03, 0.13, 0.02, 0.08, 1.8);

  numeric::CsrMatrix k, m;
  board.reduced_sparse(k, m);
  af::ModalOptions opts;
  opts.n_modes = count_or(spec.params, "n_modes", 6, 1);

  af::ReducedModes modes;
  if (!af::modal_iterates(k.rows(), opts)) {
    // The exact pass reads no factorization: build none and cache none.
    modes = af::solve_reduced_modes(k, m, opts);
  } else {
    // The factorization key hashes K and the shift only — sound because we
    // cache exclusively ladder-free shift-0 factorizations, whose factored
    // matrix is exactly K (fem::ModalFactorization docs).
    std::shared_ptr<const af::ModalFactorization> factor;
    if (ArtifactCache* cache = ctx.artifact_cache()) {
      numeric::StructuralHasher h;
      h.add(std::string_view("fem.modal_factorization")).add(numeric::hash_csr(k)).add(opts.shift);
      const std::uint64_t key = h.value();
      factor = cache->find<af::ModalFactorization>(key);
      if (!factor) {
        auto built =
            std::make_shared<const af::ModalFactorization>(af::factorize_modal(k, m, opts));
        if (built->ladder_free && opts.shift == 0.0)
          cache->insert<af::ModalFactorization>(key, built, built->cost_bytes());
        factor = std::move(built);
      }
    } else {
      factor = std::make_shared<const af::ModalFactorization>(af::factorize_modal(k, m, opts));
    }
    modes = af::solve_reduced_modes(k, m, opts, *factor);
  }

  std::map<std::string, double> out;
  if (!modes.frequencies_hz.empty()) out["f1_hz"] = modes.frequencies_hz[0];
  if (modes.frequencies_hz.size() > 1) out["f2_hz"] = modes.frequencies_hz[1];
  return out;
}

// ---- built-in graph: seb_point ------------------------------------------
//
// SEB operating point on the Fig. 10 LHP chain (bench seb_scenario). The
// model is closed-form — no cacheable artifact, the graph exists so SEB
// sweeps ride the same schema/dedup machinery.
//   params:     tilt_deg (0)
//   loads:      power_w (60)
//   boundaries: t_ambient (295.15 K)
std::map<std::string, double> seb_point(const ScenarioSpec& spec, ExecutionContext&) {
  const SebModel seb{SebDesign{}};
  const SebOperatingPoint op = seb.solve(
      value_or(spec.loads, "power_w", 60.0), kelvin_or(spec.boundaries, "t_ambient", 295.15),
      SebCooling::HeatPipesAndLhp, value_or(spec.params, "tilt_deg", 0.0));
  return {{"dt_pcb_air", op.dt_pcb_air}, {"q_lhp_path", op.q_lhp_path}, {"t_pcb", op.t_pcb}};
}

}  // namespace

struct ScenarioService::Job {
  ScenarioSpec spec;

  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  ScenarioResult result;
};

ScenarioService::ScenarioService(const ScenarioServiceOptions& opts)
    : opts_(opts), cache_(opts.cache) {
  if (opts_.workers == 0) throw std::invalid_argument("ScenarioService: zero workers");
  register_builtin_graphs();
  workers_.reserve(opts_.workers);
  for (std::size_t w = 0; w < opts_.workers; ++w)
    workers_.emplace_back([this] { worker_loop(); });
}

ScenarioService::~ScenarioService() {
  {
    std::lock_guard lock(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ScenarioService::register_builtin_graphs() {
  graphs_["fv_slab_steady"] = fv_slab_steady;
  graphs_["modal_plate"] = modal_plate;
  graphs_["seb_point"] = seb_point;
}

void ScenarioService::register_graph(std::string name, GraphFn fn) {
  if (name.empty()) throw std::invalid_argument("ScenarioService::register_graph: empty name");
  if (!fn) throw std::invalid_argument("ScenarioService::register_graph: empty graph");
  std::lock_guard lock(graphs_mutex_);
  graphs_[std::move(name)] = std::move(fn);
}

bool ScenarioService::has_graph(const std::string& name) const {
  std::lock_guard lock(graphs_mutex_);
  return graphs_.count(name) != 0;
}

ScenarioService::Ticket ScenarioService::submit(ScenarioSpec spec) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  Ticket ticket;
  ticket.name_ = spec.name;
  const std::uint64_t hash = opts_.deduplicate ? spec.content_hash() : 0;
  {
    std::lock_guard lock(queue_mutex_);
    if (opts_.deduplicate) {
      const auto it = memo_.find(hash);
      if (it != memo_.end()) {
        dedup_hits_.fetch_add(1, std::memory_order_relaxed);
        if (obs::enabled()) obs::current().counter("svc.cache.dedup_hits").add();
        ticket.job_ = it->second;
        return ticket;
      }
    }
    auto job = std::make_shared<Job>();
    job->spec = std::move(spec);
    job->result.name = job->spec.name;
    if (opts_.deduplicate) memo_.emplace(hash, job);
    queue_.push_back(job);
    ticket.job_ = std::move(job);
  }
  queue_cv_.notify_one();
  return ticket;
}

ScenarioResult ScenarioService::wait(const Ticket& ticket) {
  if (!ticket.job_) throw std::invalid_argument("ScenarioService::wait: empty ticket");
  Job& job = *ticket.job_;
  std::unique_lock lock(job.mutex);
  job.cv.wait(lock, [&] { return job.done; });
  ScenarioResult out = job.result;
  out.name = ticket.name_;
  return out;
}

std::vector<ScenarioResult> ScenarioService::run(const std::vector<ScenarioSpec>& specs) {
  std::vector<Ticket> tickets;
  tickets.reserve(specs.size());
  for (const ScenarioSpec& spec : specs) tickets.push_back(submit(spec));
  std::vector<ScenarioResult> results;
  results.reserve(tickets.size());
  for (const Ticket& t : tickets) results.push_back(wait(t));
  return results;
}

ScenarioServiceStats ScenarioService::stats() const {
  ScenarioServiceStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.executed = executed_.load(std::memory_order_relaxed);
  s.dedup_hits = dedup_hits_.load(std::memory_order_relaxed);
  return s;
}

void ScenarioService::worker_loop() {
  // The worker's one pool for its lifetime: every scenario it runs borrows
  // it, so no scenario spawns or joins a thread.
  numeric::ThreadPool pool(opts_.threads_per_scenario);
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock lock(queue_mutex_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    execute(*job, pool);
  }
}

void ScenarioService::execute(Job& job, numeric::ThreadPool& pool) {
  // Fresh context per scenario on the worker's pool: its own registry, plus
  // the artifact-cache pointer the solver graphs probe.
  ExecutionConfig cfg;
  cfg.threads = opts_.threads_per_scenario;
  cfg.telemetry = opts_.telemetry;
  cfg.artifact_cache = opts_.use_cache ? &cache_ : nullptr;
  ExecutionContext ctx(pool, cfg);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    const ExecutionContext::Use use(ctx);
    GraphFn graph;
    {
      std::lock_guard lock(graphs_mutex_);
      const auto it = graphs_.find(job.spec.graph);
      if (it != graphs_.end()) graph = it->second;
    }
    if (!graph)
      throw std::invalid_argument("ScenarioService: unknown graph '" + job.spec.graph + "'");
    job.result.values = graph(job.spec, ctx);
    job.result.ok = true;
  } catch (const std::exception& e) {
    job.result.error = e.what();
  } catch (...) {
    job.result.error = "unknown exception";
  }
  job.result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (opts_.telemetry) {
    job.result.counters = ctx.metrics().counters();
    job.result.gauges = ctx.metrics().gauges();
  }
  executed_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard lock(job.mutex);
    job.done = true;
  }
  job.cv.notify_all();
}

}  // namespace aeropack::core

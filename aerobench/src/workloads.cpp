#include "workloads.hpp"

#include <algorithm>
#include <numeric>
#include <string>

#include "mission/service_graphs.hpp"
#include "rom/service_graphs.hpp"

namespace aerobench {

namespace ac = aeropack::core;

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string spec_name(const char* prefix, std::uint64_t index) {
  return std::string(prefix) + "-" + std::to_string(index);
}

/// Specs come in blocks of `slots`, each block a seeded permutation of the
/// slots 0..slots-1; this is spec `index`'s slot. Every block holds each
/// slot once, so any run of whole blocks has the workload's mix exactly,
/// whatever the seed: drawing each slot independently would move a
/// 1500-spec mission round's share of FV marches, and with it the round's
/// work, by several percent from seed to seed.
std::uint64_t block_slot(std::uint64_t seed, std::uint64_t index, std::uint64_t slots) {
  Rng rng(seed ^ 0xB10C5B10C5ULL, index / slots);
  std::vector<std::uint64_t> perm(slots);
  std::iota(perm.begin(), perm.end(), 0);
  for (std::uint64_t i = slots - 1; i > 0; --i) std::swap(perm[i], perm[rng.below(i + 1)]);
  return perm[index % slots];
}

// ---- design_campaign ------------------------------------------------------
//
// The Fig. 1 trade study: many cheap what-ifs against one specification.
// The mix keeps the proportions of the design sweep in
// bench/bench_scenario_throughput.cpp (make_campaign), whose 12-spec block
// is 2 seb_point, 2 modal_plate, 1 fv_slab_steady, 6 rom_board_steady and
// 1 re-submission. Here every 12 specs are those 12 slots in seeded order
// (block_slot); the six ROM slots are split 3/3 between rom_board_steady
// and rom_seb_steady, and the
// re-submission repeats a recent spec (not only the block's first) under a
// new name, so dedup serves it. About 4% of modal specs carry one of four
// non-default board thicknesses: each new thickness is a new stiffness
// matrix, so its first occurrence factorizes and inserts (the cache write
// path) instead of hitting the warmed factorization.

constexpr double kThicknessVariants[] = {1.2e-3, 1.4e-3, 2.0e-3, 2.4e-3};

ac::ScenarioSpec design_spec(std::uint64_t seed, std::uint64_t index) {
  Rng rng(seed, index);
  const std::uint64_t slot = block_slot(seed, index, 12);
  ac::ScenarioSpec s;
  if (slot == 0 && index > 0) {
    const std::uint64_t back = 1 + rng.below(std::min<std::uint64_t>(index, 256));
    s = design_spec(seed, index - back);
    s.name = spec_name("design-dup", index);
    return s;
  }
  s.name = spec_name("design", index);
  if (slot <= 2) {  // spec 0 has nothing to re-submit and takes seb_point
    s.graph = "seb_point";
    s.params["tilt_deg"] = rng.uniform(0.0, 20.0);
    s.loads["power_w"] = rng.uniform(20.0, 120.0);
    s.boundaries["t_ambient"] = rng.uniform(288.15, 308.15);
  } else if (slot <= 4) {
    s.graph = "modal_plate";
    s.params["mass_x"] = rng.uniform(0.02, 0.14);
    s.params["mass_y"] = rng.uniform(0.02, 0.08);
    s.params["mass_kg"] = rng.uniform(0.08, 0.30);
    if (rng.uniform(0.0, 1.0) < 0.04) s.params["thickness"] = kThicknessVariants[rng.below(4)];
  } else if (slot == 5) {
    s.graph = "fv_slab_steady";
    s.loads["power_w"] = rng.uniform(1.0, 20.0);
    const double t_cold = rng.uniform(280.0, 310.0);
    s.boundaries["t_cold"] = t_cold;
    s.boundaries["t_hot"] = t_cold + rng.uniform(5.0, 40.0);
  } else if (slot <= 8) {
    s.graph = "rom_board_steady";
    s.loads["cpu"] = rng.uniform(0.5, 20.0);
    s.loads["psu"] = rng.uniform(0.5, 6.0);
    s.boundaries["rail_left"] = rng.uniform(300.0, 330.0);
    s.boundaries["rail_right"] = rng.uniform(300.0, 330.0);
    s.boundaries["top_air"] = rng.uniform(290.0, 320.0);
  } else {
    s.graph = "rom_seb_steady";
    s.loads["pcb_components"] = rng.uniform(10.0, 60.0);
    s.loads["psu"] = rng.uniform(5.0, 20.0);
    s.boundaries["seat_rail_a"] = rng.uniform(290.0, 320.0);
    s.boundaries["seat_rail_b"] = rng.uniform(290.0, 320.0);
    s.boundaries["skin"] = rng.uniform(285.0, 315.0);
  }
  return s;
}

std::vector<ac::ScenarioSpec> design_warmups() {
  // Defaults only: generated specs always carry seeded loads/boundaries, so
  // no warm-up content hash can collide with a timed spec.
  std::vector<ac::ScenarioSpec> w(4);
  w[0].name = "warmup-fv";
  w[0].graph = "fv_slab_steady";
  w[1].name = "warmup-modal";
  w[1].graph = "modal_plate";
  w[2].name = "warmup-rom-board";
  w[2].graph = "rom_board_steady";
  w[3].name = "warmup-rom-seb";
  w[3].graph = "rom_seb_steady";
  return w;
}

// ---- fv_fine_steady -------------------------------------------------------
//
// fv_slab_steady on a 48^3 cube: every spec shares the one FvAssembly built
// in setup; loads and sink temperatures are seeded.

constexpr double kFineCells = 48.0;
constexpr double kFineEdge = 0.05;

ac::ScenarioSpec fine_base(std::string name) {
  ac::ScenarioSpec s;
  s.name = std::move(name);
  s.graph = "fv_slab_steady";
  s.params = {{"nx", kFineCells}, {"ny", kFineCells}, {"nz", kFineCells},
              {"lx", kFineEdge},  {"ly", kFineEdge},  {"lz", kFineEdge}};
  return s;
}

ac::ScenarioSpec fine_spec(std::uint64_t seed, std::uint64_t index) {
  Rng rng(seed, index);
  ac::ScenarioSpec s = fine_base(spec_name("fine", index));
  s.loads["power_w"] = rng.uniform(2.0, 20.0);
  s.boundaries["t_cold"] = rng.uniform(280.0, 300.0);
  s.boundaries["t_hot"] = rng.uniform(310.0, 340.0);
  return s;
}

std::vector<ac::ScenarioSpec> fine_warmups() { return {fine_base("warmup-fine")}; }

// ---- mission_campaign -----------------------------------------------------
//
// Qualification marches on the canonical SEB box (720 cells): DO-160 shock
// and CubeSat eclipse at FV fidelity (one shared steady assembly) and at
// compact-model fidelity (one shared RomModel), plus the ARINC 600 flight
// envelope on the lumped network, one of each per 5 specs (block_slot).

void seb_loads(Rng& rng, ac::ScenarioSpec& s) {
  s.loads["pcb_components"] = rng.uniform(20.0, 60.0);
  s.loads["psu"] = rng.uniform(8.0, 20.0);
}

ac::ScenarioSpec mission_spec(std::uint64_t seed, std::uint64_t index) {
  Rng rng(seed, index);
  ac::ScenarioSpec s;
  s.name = spec_name("mission", index);
  const std::uint64_t kind = block_slot(seed, index, 5);
  if (kind == 0 || kind == 2) {
    s.graph = kind == 0 ? "mission_seb_do160" : "mission_rom_do160";
    s.params["dwell_s"] = 240.0;
    s.params["ramp_rate"] = 25.0;
    s.boundaries["t_cold"] = rng.uniform(223.15, 238.15);
    s.boundaries["t_hot"] = rng.uniform(318.15, 338.15);
    seb_loads(rng, s);
  } else if (kind == 1 || kind == 3) {
    s.graph = kind == 1 ? "mission_seb_eclipse" : "mission_rom_eclipse";
    s.params["orbits"] = 2.0;
    s.params["period_s"] = 600.0;
    s.boundaries["t_sunlit"] = rng.uniform(303.15, 323.15);
    s.boundaries["t_eclipse"] = rng.uniform(203.15, 223.15);
    seb_loads(rng, s);
  } else {
    s.graph = "mission_network_flight";
    s.params["time_scale"] = 0.02;
    s.boundaries["t_ground"] = rng.uniform(318.15, 338.15);
    s.boundaries["t_cruise"] = rng.uniform(233.15, 253.15);
    s.loads["equipment"] = rng.uniform(80.0, 160.0);
  }
  return s;
}

std::vector<ac::ScenarioSpec> mission_warmups() {
  // A one-orbit, one-minute eclipse march builds the SEB box's steady
  // assembly (the structural key ignores the profile); rom_seb_steady builds
  // the compact model every ROM mission shares (same rom_key).
  std::vector<ac::ScenarioSpec> w(2);
  w[0].name = "warmup-seb-assembly";
  w[0].graph = "mission_seb_eclipse";
  w[0].params = {{"orbits", 1.0}, {"period_s", 60.0}};
  w[1].name = "warmup-rom-seb";
  w[1].graph = "rom_seb_steady";
  return w;
}

}  // namespace

Rng::Rng(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t s = seed;
  state_ = splitmix64(s);
  std::uint64_t i = index ^ 0xD1B54A32D192ED03ULL;
  state_ ^= splitmix64(i);
}

std::uint64_t Rng::next() { return splitmix64(state_); }

double Rng::uniform(double lo, double hi) {
  const double unit = static_cast<double>(next() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * unit;
}

std::uint64_t Rng::below(std::uint64_t n) { return next() % n; }

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"design_campaign",
       "every 12 specs in seeded order (make_campaign's block): 2 seb_point, 2 modal_plate "
       "(4% thickness variants), 1 fv_slab_steady, 3 rom_board_steady, 3 rom_seb_steady, "
       "1 dedup re-submit",
       {4, 2, 2},
       {"seb_point", "modal_plate", "fv_slab_steady", "rom_board_steady", "rom_seb_steady"},
       &design_spec,
       &design_warmups,
       12000},
      {"fv_fine_steady",
       "fv_slab_steady on a 48^3 cube (0.05 m), seeded power_w, t_cold, t_hot",
       {1, 1, 4},
       {"fv_slab_steady"},
       &fine_spec,
       &fine_warmups,
       50},
      {"mission_campaign",
       "mission_seb_do160, mission_seb_eclipse, mission_rom_do160, mission_rom_eclipse, "
       "mission_network_flight, one of each per 5 specs",
       {4, 4, 1},
       {"mission_seb_do160", "mission_seb_eclipse", "mission_rom_do160", "mission_rom_eclipse",
        "mission_network_flight"},
       &mission_spec,
       &mission_warmups,
       1500},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

void register_graphs(ac::ScenarioService& service) {
  aeropack::rom::register_rom_graphs(service);
  aeropack::mission::register_mission_graphs(service);
}

}  // namespace aerobench

// core::ScenarioService — submission/dedup/wait semantics, graph registry,
// error capture, telemetry capture (counters + gauges), options validation
// and the plain batch semantics (dedup and cache off): submission order,
// bit-identical outputs at every worker count, per-scenario counter
// isolation and fresh counters on re-submission, failures included.
#include "core/scenario_service.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "materials/solid.hpp"
#include "mission/service_graphs.hpp"
#include "obs/registry.hpp"
#include "rom/service_graphs.hpp"
#include "thermal/fv.hpp"

namespace ac = aeropack::core;
namespace at = aeropack::thermal;

namespace {

ac::ScenarioSpec seb_spec(const std::string& name, double power_w) {
  ac::ScenarioSpec spec;
  spec.name = name;
  spec.graph = "seb_point";
  spec.loads = {{"power_w", power_w}};
  return spec;
}

/// The plain batch executor: every submission is one cold solve with its
/// own counters.
ac::ScenarioServiceOptions batch_options(std::size_t workers) {
  ac::ScenarioServiceOptions opts;
  opts.workers = workers;
  opts.deduplicate = false;
  opts.use_cache = false;
  return opts;
}

ac::ScenarioSpec slab_spec(const std::string& name, double power_w) {
  ac::ScenarioSpec spec;
  spec.name = name;
  spec.graph = "fv_slab_steady";
  spec.loads = {{"power_w", power_w}};
  return spec;
}

/// One small FV slab solve — leaves an fv.steady_solves trail in whichever
/// registry is bound.
void solve_slab(double power_w) {
  at::FvModel slab(at::FvGrid::uniform(0.1, 0.02, 0.01, 8, 2, 2));
  slab.set_material(aeropack::materials::aluminum_6061());
  slab.add_power({0, 8, 0, 2, 0, 2}, power_w);
  slab.set_boundary(at::Face::XMin, at::BoundaryCondition::fixed(300.0));
  slab.solve_steady();
}

std::uint64_t counter_of(const ac::ScenarioResult& r, const std::string& key) {
  const auto it = r.counters.find(key);
  return it == r.counters.end() ? 0u : it->second;
}

TEST(ScenarioService, ZeroWorkersThrows) {
  ac::ScenarioServiceOptions opts;
  opts.workers = 0;
  EXPECT_THROW(ac::ScenarioService service(opts), std::invalid_argument);
}

TEST(ScenarioService, WaitOnDefaultTicketThrows) {
  ac::ScenarioService service;
  EXPECT_THROW(service.wait(ac::ScenarioService::Ticket{}), std::invalid_argument);
}

TEST(ScenarioService, BuiltinGraphsAreRegistered) {
  ac::ScenarioService service;
  EXPECT_TRUE(service.has_graph("fv_slab_steady"));
  EXPECT_TRUE(service.has_graph("modal_plate"));
  EXPECT_TRUE(service.has_graph("seb_point"));
  EXPECT_FALSE(service.has_graph("rom_board_steady"));
  aeropack::rom::register_rom_graphs(service);
  EXPECT_TRUE(service.has_graph("rom_board_steady"));
  EXPECT_TRUE(service.has_graph("rom_seb_steady"));
}

TEST(ScenarioService, UnknownGraphFailsTheScenarioNotTheBatch) {
  ac::ScenarioService service;
  ac::ScenarioSpec bad;
  bad.name = "bad";
  bad.graph = "no_such_graph";
  const std::vector<ac::ScenarioResult> results = service.run({bad, seb_spec("good", 60.0)});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_NE(results[0].error.find("no_such_graph"), std::string::npos);
  EXPECT_TRUE(results[1].ok);
  EXPECT_GT(results[1].values.at("t_pcb"), 0.0);
}

TEST(ScenarioService, DeduplicatesContentEqualSpecs) {
  ac::ScenarioServiceOptions opts;
  opts.workers = 2;
  ac::ScenarioService service(opts);
  // Same content under three names + one genuinely different point.
  const std::vector<ac::ScenarioResult> results =
      service.run({seb_spec("a", 60.0), seb_spec("b", 60.0), seb_spec("c", 60.0),
                   seb_spec("d", 120.0)});
  ASSERT_EQ(results.size(), 4u);
  for (const ac::ScenarioResult& r : results) EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
  // Each ticket keeps its own name even when the job was shared.
  EXPECT_EQ(results[0].name, "a");
  EXPECT_EQ(results[1].name, "b");
  EXPECT_EQ(results[2].name, "c");
  // Duplicates return the identical values.
  EXPECT_EQ(results[0].values, results[1].values);
  EXPECT_EQ(results[0].values, results[2].values);
  EXPECT_NE(results[0].values.at("t_pcb"), results[3].values.at("t_pcb"));

  const ac::ScenarioServiceStats s = service.stats();
  EXPECT_EQ(s.submitted, 4u);
  EXPECT_EQ(s.dedup_hits, 2u);
  EXPECT_EQ(s.executed, 2u);
}

TEST(ScenarioService, MemoPersistsAcrossBatches) {
  ac::ScenarioService service;
  const auto first = service.run({seb_spec("p60", 60.0)});
  ASSERT_TRUE(first[0].ok);
  const auto again = service.run({seb_spec("p60_again", 60.0)});
  ASSERT_TRUE(again[0].ok);
  EXPECT_EQ(first[0].values, again[0].values);
  const ac::ScenarioServiceStats s = service.stats();
  EXPECT_EQ(s.executed, 1u);  // the second batch was memoized, not re-solved
  EXPECT_EQ(s.dedup_hits, 1u);
}

TEST(ScenarioService, DedupOffRunsEverySubmission) {
  ac::ScenarioServiceOptions opts;
  opts.deduplicate = false;
  ac::ScenarioService service(opts);
  service.run({seb_spec("a", 60.0), seb_spec("b", 60.0)});
  const ac::ScenarioServiceStats s = service.stats();
  EXPECT_EQ(s.executed, 2u);
  EXPECT_EQ(s.dedup_hits, 0u);
}

TEST(ScenarioService, ResultsCarryCountersAndGauges) {
  ac::ScenarioService service;
  ac::ScenarioSpec spec;
  spec.name = "slab";
  spec.graph = "fv_slab_steady";
  const auto results = service.run({spec});
  ASSERT_TRUE(results[0].ok) << results[0].error;
  EXPECT_GE(results[0].counters.at("fv.steady_solves"), 1u);
  // Gauge capture (the satellite contract): problem size + per-pass traces
  // from the scenario's isolated registry.
  EXPECT_GT(results[0].gauges.at("fv.cells"), 0.0);
  EXPECT_GT(results[0].seconds, 0.0);
}

TEST(ScenarioService, TelemetryOffLeavesProfilesEmpty) {
  ac::ScenarioServiceOptions opts;
  opts.telemetry = false;
  ac::ScenarioService service(opts);
  const auto results = service.run({seb_spec("quiet", 60.0)});
  ASSERT_TRUE(results[0].ok);
  EXPECT_TRUE(results[0].counters.empty());
  EXPECT_TRUE(results[0].gauges.empty());
}

TEST(ScenarioService, RegisteredGraphRunsAndValidates) {
  ac::ScenarioService service;
  EXPECT_THROW(service.register_graph("", [](const ac::ScenarioSpec&, aeropack::ExecutionContext&) {
    return std::map<std::string, double>{};
  }),
               std::invalid_argument);
  EXPECT_THROW(service.register_graph("g", ac::GraphFn{}), std::invalid_argument);
  service.register_graph("echo", [](const ac::ScenarioSpec& s, aeropack::ExecutionContext&) {
    return std::map<std::string, double>{{"x", s.params.at("x") * 2.0}};
  });
  ac::ScenarioSpec spec;
  spec.name = "echoed";
  spec.graph = "echo";
  spec.params = {{"x", 21.0}};
  const auto results = service.run({spec});
  ASSERT_TRUE(results[0].ok) << results[0].error;
  EXPECT_EQ(results[0].values.at("x"), 42.0);
}

TEST(ScenarioService, ThrowingGraphIsCapturedPerScenario) {
  ac::ScenarioService service;
  service.register_graph("boom", [](const ac::ScenarioSpec&, aeropack::ExecutionContext&)
                                     -> std::map<std::string, double> {
    throw std::runtime_error("scenario exploded");
  });
  ac::ScenarioSpec spec;
  spec.name = "boom1";
  spec.graph = "boom";
  const auto results = service.run({spec});
  EXPECT_FALSE(results[0].ok);
  EXPECT_EQ(results[0].error, "scenario exploded");
  EXPECT_TRUE(results[0].values.empty());
}

TEST(ScenarioService, BatchResultsComeBackInSubmissionOrder) {
  ac::ScenarioService service(batch_options(4));
  service.register_graph("echo", [](const ac::ScenarioSpec& spec, aeropack::ExecutionContext&) {
    return std::map<std::string, double>{{"v", spec.loads.at("v")}};
  });
  std::vector<ac::ScenarioSpec> specs;
  for (int i = 0; i < 9; ++i) {
    ac::ScenarioSpec spec;
    spec.name = "s" + std::to_string(i);
    spec.graph = "echo";
    spec.loads = {{"v", 1.5 * i}};
    specs.push_back(spec);
  }
  const std::vector<ac::ScenarioResult> results = service.run(specs);
  ASSERT_EQ(results.size(), 9u);
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(results[i].name, "s" + std::to_string(i));
    ASSERT_TRUE(results[i].ok) << results[i].error;
    EXPECT_DOUBLE_EQ(results[i].values.at("v"), 1.5 * i);
  }
}

TEST(ScenarioService, BatchOutputsBitIdenticalAcrossWorkerCounts) {
  std::vector<ac::ScenarioSpec> specs;
  for (const double q : {2.0, 5.0, 9.0, 13.0})
    specs.push_back(slab_spec("q" + std::to_string(static_cast<int>(q)), q));
  ac::ScenarioService serial_service(batch_options(1));
  const std::vector<ac::ScenarioResult> serial = serial_service.run(specs);
  for (const std::size_t w : {2u, 4u}) {
    ac::ScenarioService service(batch_options(w));
    const std::vector<ac::ScenarioResult> batch = service.run(specs);
    ASSERT_EQ(batch.size(), serial.size()) << w << " workers";
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(batch[i].ok) << batch[i].error;
      // Exact equality: same context config => same pool partition and
      // chunked reductions => the same bits.
      EXPECT_EQ(batch[i].values, serial[i].values) << w << " workers, scenario " << i;
    }
  }
}

TEST(ScenarioService, EachScenarioGetsItsOwnCounterProfile) {
  ac::ScenarioService service(batch_options(2));
  service.register_graph("two_slabs", [](const ac::ScenarioSpec&, aeropack::ExecutionContext&) {
    solve_slab(5.0);
    solve_slab(7.0);
    return std::map<std::string, double>{};
  });
  ac::ScenarioSpec two;
  two.name = "two_solves";
  two.graph = "two_slabs";
  const auto results = service.run({slab_spec("one_solve", 5.0), two});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(counter_of(results[0], "fv.steady_solves"), 1u);
  EXPECT_EQ(counter_of(results[1], "fv.steady_solves"), 2u);
  EXPECT_GT(counter_of(results[0], "fv.cg_iterations"), 0u);
}

TEST(ScenarioService, FailedScenarioKeepsItsCountersAndResubmitsIdentically) {
  ac::ScenarioService service(batch_options(2));
  service.register_graph("solve_then_throw", [](const ac::ScenarioSpec&,
                                                aeropack::ExecutionContext&)
                                                 -> std::map<std::string, double> {
    solve_slab(5.0);  // leaves a counter trail before failing
    throw std::runtime_error("diverged after the solve");
  });
  ac::ScenarioSpec bad;
  bad.name = "bad";
  bad.graph = "solve_then_throw";
  const auto first = service.run({slab_spec("good", 4.0), bad});
  const auto second = service.run({slab_spec("good", 4.0), bad});
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_TRUE(first[0].ok);
  EXPECT_TRUE(second[0].ok);
  EXPECT_FALSE(first[1].ok);
  EXPECT_FALSE(second[1].ok);
  EXPECT_EQ(first[1].error, "diverged after the solve");
  EXPECT_EQ(second[1].error, first[1].error);
  // A failed scenario still reports the counters it accrued — identically
  // on re-submission, because each execution drives a fresh registry.
  EXPECT_EQ(counter_of(first[1], "fv.steady_solves"), 1u);
  EXPECT_EQ(first[1].counters, second[1].counters);
  EXPECT_EQ(first[0].counters, second[0].counters);
}

TEST(ScenarioService, ResubmissionGetsFreshCounters) {
  ac::ScenarioService service(batch_options(1));
  const auto first = service.run({slab_spec("slab", 6.0)});
  const auto second = service.run({slab_spec("slab", 6.0)});
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  ASSERT_TRUE(first[0].ok) << first[0].error;
  ASSERT_TRUE(second[0].ok) << second[0].error;
  EXPECT_EQ(first[0].values, second[0].values);
  // Fresh context per execution: counters do not accumulate across runs.
  EXPECT_EQ(counter_of(first[0], "fv.steady_solves"), 1u);
  EXPECT_EQ(counter_of(second[0], "fv.steady_solves"), 1u);
}

TEST(ScenarioService, TelemetryBatchLeavesTheProcessRegistryUntouched) {
  const auto before = aeropack::obs::Registry::instance().counters();
  ac::ScenarioServiceOptions opts = batch_options(2);
  opts.telemetry = true;
  ac::ScenarioService service(opts);
  for (const auto& r : service.run({slab_spec("a", 3.0), slab_spec("b", 8.0)}))
    ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(aeropack::obs::Registry::instance().counters(), before);
}

TEST(ScenarioService, MoreWorkersThanScenariosIsFine) {
  ac::ScenarioService service(batch_options(16));
  const auto results = service.run({slab_spec("only", 4.0)});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok) << results[0].error;
}

TEST(ScenarioService, CountParamsWithUndefinedConversionsAreRefused) {
  ac::ScenarioService service;
  const double bad_values[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity(), 1e300, -3.0, 0.5};
  for (const double v : bad_values) {
    ac::ScenarioSpec spec = slab_spec("bad_nx", 5.0);
    spec.params["nx"] = v;
    const auto results = service.run({spec});
    EXPECT_FALSE(results[0].ok) << "nx = " << v;
    EXPECT_NE(results[0].error.find("'nx'"), std::string::npos) << results[0].error;
  }
}

TEST(ScenarioService, NonPositiveAndNonFiniteTemperaturesAreRefusedByName) {
  // Every temperature a built-in, ROM or mission graph reads is absolute:
  // 0 K, negative kelvin and non-finite values are refused before any
  // solve, naming the field (fv_slab_steady used to solve with t_cold=-5).
  struct Case {
    std::string graph;
    std::string field;
    bool boundary;  ///< a spec boundary; otherwise a param
  };
  const std::vector<Case> cases{
      {"fv_slab_steady", "t_cold", true},     {"fv_slab_steady", "t_hot", true},
      {"seb_point", "t_ambient", true},       {"rom_board_steady", "rail_left", true},
      {"rom_seb_steady", "skin", true},       {"mission_seb_do160", "t_cold", true},
      {"mission_seb_do160", "t_initial", false},
      {"mission_seb_eclipse", "t_eclipse", true},
      {"mission_network_flight", "t_cruise", true},
      {"mission_network_flight", "t_initial", false},
      {"mission_rom_do160", "t_hot", true},   {"mission_rom_eclipse", "t_sunlit", true},
      {"mission_rom_eclipse", "t_initial", false}};
  const double bad_values[] = {-5.0, 0.0, std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
  ac::ScenarioService service;
  aeropack::rom::register_rom_graphs(service);
  aeropack::mission::register_mission_graphs(service);
  std::vector<ac::ScenarioSpec> specs;
  std::vector<std::string> fields;
  for (const Case& c : cases)
    for (const double v : bad_values) {
      ac::ScenarioSpec spec;
      spec.name = c.graph + "." + c.field + "=" + std::to_string(v);
      spec.graph = c.graph;
      (c.boundary ? spec.boundaries : spec.params)[c.field] = v;
      specs.push_back(spec);
      fields.push_back("'" + c.field + "'");
    }
  const auto results = service.run(specs);
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_FALSE(results[i].ok) << specs[i].name;
    EXPECT_NE(results[i].error.find(fields[i]), std::string::npos)
        << specs[i].name << ": " << results[i].error;
  }
}

TEST(ScenarioService, NonFinitePowerAndOffBoardMassAreRefusedByName) {
  // Refused at the model layer: a NaN power would otherwise run CG to its
  // iteration cap and surface as a convergence failure, and an off-board
  // mass would snap to the board edge.
  ac::ScenarioSpec off_board;
  off_board.name = "off_board";
  off_board.graph = "modal_plate";
  off_board.params = {{"mass_x", 5.0}};  // the board is 0.16 m long
  ac::ScenarioService service;
  const auto results =
      service.run({slab_spec("nan_power", std::numeric_limits<double>::quiet_NaN()), off_board});
  EXPECT_FALSE(results[0].ok);
  EXPECT_NE(results[0].error.find("add_power: watts"), std::string::npos) << results[0].error;
  EXPECT_FALSE(results[1].ok);
  EXPECT_NE(results[1].error.find("add_point_mass: x"), std::string::npos) << results[1].error;
}

}  // namespace

#include "rom/cache.hpp"

#include <string_view>

#include "numeric/hashing.hpp"

namespace aeropack::rom {

namespace {

void hash_range(numeric::StructuralHasher& h, const thermal::CellRange& r) {
  h.add(static_cast<std::uint64_t>(r.i0)).add(static_cast<std::uint64_t>(r.i1));
  h.add(static_cast<std::uint64_t>(r.j0)).add(static_cast<std::uint64_t>(r.j1));
  h.add(static_cast<std::uint64_t>(r.k0)).add(static_cast<std::uint64_t>(r.k1));
}

}  // namespace

std::uint64_t rom_key(const thermal::FvModel& model, const RomSpec& spec,
                      const RomOptions& opts) {
  numeric::StructuralHasher h;
  h.add(std::string_view("rom.model"));
  // Geometry, materials, interfaces and the face-conductance scheme.
  h.add(model.structural_hash(opts.fv));
  h.add(static_cast<std::uint64_t>(spec.ports.size()));
  for (const RomPort& p : spec.ports) {
    h.add(std::string_view(p.name));
    h.add(static_cast<std::uint64_t>(p.face));
    hash_range(h, p.patch);
    h.add(p.h);
  }
  h.add(static_cast<std::uint64_t>(spec.maps.size()));
  for (const RomPowerMap& m : spec.maps) {
    h.add(std::string_view(m.name));
    h.add(static_cast<std::uint64_t>(m.regions.size()));
    for (const RomPowerMap::Region& r : m.regions) {
      hash_range(h, r.cells);
      h.add(r.weight);
    }
  }
  // Every knob the builder reads, including the snapshot solver's.
  h.add(opts.rank ? static_cast<std::uint64_t>(*opts.rank) : ~std::uint64_t{0});
  h.add(opts.energy_tolerance);
  h.add(opts.snapshot_tolerance);
  h.add(static_cast<std::uint64_t>(opts.transient_samples_per_map));
  h.add(opts.transient_time_scale);
  h.add(static_cast<std::uint64_t>(opts.fv.max_picard_iterations));
  h.add(opts.fv.picard_tolerance);
  h.add(static_cast<std::uint64_t>(opts.fv.linear.max_iterations));
  h.add(opts.fv.linear.tolerance);
  return h.value();
}

std::size_t rom_cost_bytes(const RomModel& model) {
  const std::size_t cells = model.cell_count();
  const std::size_t r = model.usable_rank();
  const std::size_t cols = model.port_count() + model.map_count();
  // basis (cells x r), three r x r operators, input map, selectors,
  // training projections — doubles throughout.
  return sizeof(RomModel) +
         8 * (cells * r + 3 * r * r + r * cols + 2 * model.port_count() * r +
              r * model.build_info().snapshot_count);
}

std::shared_ptr<const RomModel> get_or_build_rom(core::ArtifactCache* cache,
                                                 const thermal::FvModel& model,
                                                 const RomSpec& spec, const RomOptions& opts) {
  if (!cache) return std::make_shared<const RomModel>(build_rom(model, spec, opts));
  return cache->get_or_build<RomModel>(
      rom_key(model, spec, opts),
      [&] { return std::make_shared<const RomModel>(build_rom(model, spec, opts)); },
      [](const RomModel& m) { return rom_cost_bytes(m); });
}

}  // namespace aeropack::rom

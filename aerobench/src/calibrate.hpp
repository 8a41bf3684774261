// Host-speed calibration.
//
// The benchmark runs on a few vCPUs of a shared host. On a 4-vCPU KVM guest
// the speed of the program's solves drifts by up to 40% over minutes as the
// host's other tenants come and go. A fixed kernel of the benchmark's own,
// timed before set-up and between the rounds of the timed phase, measures
// that drift. It does not call the program, so no change to the program
// moves it.
#pragma once

#include <cstddef>

namespace aerobench {

/// Run the calibration kernel (40 Jacobi-CG iterations on a 7-point
/// operator over a 48 x 48 x 12 grid per thread, so four threads hold a
/// 48^3 grid's CSR and vectors in the last-level cache) on `threads`
/// threads at once for about `seconds`; return the mean over threads of
/// solves per second over kNominalRate. A time measured at host speed `s`
/// is reported as time * s.
double host_speed(std::size_t threads, double seconds);

/// Solves per second per thread that define host speed 1. It only sets the
/// scale: the kernel's rate on a 4-vCPU Sapphire Rapids KVM guest with
/// little load from other tenants.
inline constexpr double kNominalRate = 90.0;

}  // namespace aerobench

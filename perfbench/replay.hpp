// Step replay: rebuild one window of a job from public library calls and
// time each layer on its own.
//
// A full Simulation step hides its layers behind one advance() call. The
// replay redoes the step's pieces in order on the benchmark's own
// Engine, Fabric and Comm — Workload::evolve up to the replay step, the
// policy's (or PlacementEngine's) placement, the exchange-plan build,
// then the step executor — with a span around each, and reads the work
// counts from Engine::events_processed() and FabricStats. The replay
// always uses the spec's default config seed, so its counts repeat
// exactly from run to run and from seed to seed.
#pragma once

#include <cstdint>

#include "amr/sim/sim_driver.hpp"
#include "spans.hpp"

namespace perfbench {

struct ReplayCounts {
  double evolve_ms = 0.0;      ///< evolve calls up to the replay step
  double place_ms = 0.0;       ///< one placement of the replay mesh
  double plan_build_ms = 0.0;  ///< one from-scratch exchange-plan build
  double execute_ms = 0.0;     ///< median executor time per window
  double ns_per_event = 0.0;   ///< median executor ns per engine event
  double events_per_step = 0.0;
  double transfers_per_step = 0.0;   ///< fabric transfers (shm + remote)
  double remote_bytes_per_step = 0.0;
  double shm_retries_per_step = 0.0;
  double msgs_per_step = 0.0;  ///< logical messages, packed ones included
  double coalesced_frac = 0.0; ///< logical messages riding in aggregates
  std::int64_t blocks = 0;     ///< mesh size at the replay step
};

/// Replay `windows` executions of `spec`'s step `at_step`.
ReplayCounts replay_step(const amr::JobSpec& spec, std::int64_t at_step,
                         int windows, SpanLog& log);

}  // namespace perfbench

#include "replay.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "amr/des/engine.hpp"
#include "amr/exec/critical_path.hpp"
#include "amr/exec/overlap.hpp"
#include "amr/exec/plan_cache.hpp"
#include "amr/net/fabric.hpp"
#include "amr/placement/cplx.hpp"
#include "amr/placement/engine.hpp"
#include "amr/placement/registry.hpp"
#include "amr/simmpi/comm.hpp"
#include "amr/topo/topology.hpp"

namespace perfbench {
namespace {

using namespace amr;

/// The simulation's packing rule (sim/simulation.cpp): the legacy
/// aggregate flag and adaptive comm without an override pack every
/// multi-message pair; an override sets one global threshold.
PackingPolicy packing_for(const SimulationConfig& cfg) {
  if (cfg.aggregate_messages) return PackingPolicy::all();
  if (!cfg.comm_adaptive) return PackingPolicy::none();
  if (cfg.comm_pack_threshold < 0) return PackingPolicy::all();
  PackingPolicy p;
  p.ranks_per_node = cfg.ranks_per_node;
  p.shm_threshold = cfg.comm_pack_threshold;
  p.remote_threshold = cfg.comm_pack_threshold;
  return p;
}

/// Stage-1 share of a block's compute when an overlap step runs two-stage
/// (packing active), as the simulation splits it.
constexpr double kOverlapStageSplit = 0.8;

double ms_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-6;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

ReplayCounts replay_step(const JobSpec& spec, std::int64_t at_step,
                         int windows, SpanLog& log) {
  const std::string err = validate_job(spec);
  if (!err.empty()) throw std::runtime_error(err);
  if (windows < 1 || at_step < 0 || at_step >= spec.steps)
    throw std::runtime_error("replay: step or window count out of range");
  const SimulationConfig cfg = job_config(spec);
  std::unique_ptr<Workload> workload = make_job_workload(spec);
  const PolicyPtr policy = make_policy(spec.policy);
  ReplayCounts out;
  ScopedSpan whole(log, "replay_step");

  AmrMesh mesh(cfg.root_grid);
  std::int64_t t0 = now_ns();
  {
    ScopedSpan s(log, "replay.evolve");
    for (std::int64_t step = 0; step <= at_step; ++step)
      workload->evolve(mesh, step);
  }
  out.evolve_ms = ms_between(t0, now_ns());
  out.blocks = static_cast<std::int64_t>(mesh.size());

  std::vector<TimeNs> costs(mesh.size());
  for (std::size_t b = 0; b < mesh.size(); ++b)
    costs[b] = workload->block_cost(mesh, b, at_step);
  const std::vector<double> costs_d(costs.begin(), costs.end());

  Placement placement;
  PlacementEngine placement_engine;
  const auto* cplx = dynamic_cast<const CplxPolicy*>(policy.get());
  t0 = now_ns();
  {
    ScopedSpan s(log, "replay.place");
    if (cplx != nullptr && (spec.placement_incremental || spec.auto_cplx))
      placement = placement_engine.place_cplx(
          costs_d, cfg.nranks, cplx->x_percent(), cplx->chunk_ranks(),
          mesh.version());
    else
      placement = policy->place(costs_d, cfg.nranks);
  }
  out.place_ms = ms_between(t0, now_ns());
  if (!placement_valid(placement, mesh.size(), cfg.nranks))
    throw std::runtime_error("replay: invalid placement");

  const PackingPolicy packing = packing_for(cfg);
  const bool bsp = cfg.execution == ExecutionMode::kBsp;
  ExchangePlanCache plans;
  std::span<const RankStepWork> bsp_work;
  std::span<const OverlapRankWork> overlap_work;
  t0 = now_ns();
  {
    ScopedSpan s(log, "replay.plan");
    if (bsp)
      bsp_work = plans.step_work(mesh, placement, 1, costs, cfg.nranks,
                                 cfg.msg_sizes, cfg.include_flux_correction,
                                 packing);
    else
      overlap_work = plans.overlap_work(
          mesh, placement, 1, costs, cfg.nranks, cfg.msg_sizes, packing,
          packing.active() ? kOverlapStageSplit : 0.0);
  }
  out.plan_build_ms = ms_between(t0, now_ns());

  const ClusterTopology topo(cfg.nranks, cfg.ranks_per_node);
  Engine engine;
  Rng rng(cfg.seed);
  Fabric fabric(topo, cfg.fabric, rng.split(0xfab));
  Comm comm(engine, fabric, cfg.nranks, cfg.collective);
  std::unique_ptr<StepExecutor> bsp_exec;
  std::unique_ptr<OverlapExecutor> overlap_exec;
  if (bsp)
    bsp_exec = std::make_unique<StepExecutor>(engine, comm, cfg.exec);
  else
    overlap_exec = std::make_unique<OverlapExecutor>(engine, comm, cfg.exec);
  CriticalPathAnalyzer critical_path;

  std::vector<double> execute_ms;
  std::vector<double> ns_per_event;
  std::int64_t events = 0;
  const FabricStats before = fabric.stats();
  std::int32_t priority_rank = -1;
  for (int w = 0; w < windows; ++w) {
    const auto window = static_cast<std::uint64_t>(at_step + w);
    const std::uint64_t e0 = engine.events_processed();
    t0 = now_ns();
    StepResult result;
    {
      ScopedSpan s(log, "replay.execute");
      result = bsp ? bsp_exec->execute(bsp_work, cfg.ordering, window,
                                       priority_rank)
                   : overlap_exec->execute(overlap_work, window,
                                           priority_rank);
    }
    const std::int64_t dt = now_ns() - t0;
    const auto ev = static_cast<std::int64_t>(engine.events_processed() - e0);
    events += ev;
    execute_ms.push_back(static_cast<double>(dt) * 1e-6);
    ns_per_event.push_back(static_cast<double>(dt) /
                           static_cast<double>(std::max<std::int64_t>(1, ev)));
    const WindowPath path = critical_path.observe(result);
    if (cfg.send_priority) priority_rank = path.straggler;
  }
  const FabricStats& after = fabric.stats();
  const double n = windows;
  const auto transfers = static_cast<double>(
      (after.remote_msgs - before.remote_msgs) +
      (after.shm_msgs - before.shm_msgs));
  const auto coalesced =
      static_cast<double>(after.coalesced_msgs - before.coalesced_msgs);
  out.execute_ms = median(execute_ms);
  out.ns_per_event = median(ns_per_event);
  out.events_per_step = static_cast<double>(events) / n;
  out.transfers_per_step = transfers / n;
  out.remote_bytes_per_step =
      static_cast<double>(after.remote_bytes - before.remote_bytes) / n;
  out.shm_retries_per_step =
      static_cast<double>(after.shm_retries - before.shm_retries) / n;
  out.msgs_per_step = (transfers + coalesced) / n;
  out.coalesced_frac =
      transfers + coalesced > 0 ? coalesced / (transfers + coalesced) : 0.0;
  return out;
}

}  // namespace perfbench

// perfbench: the repository benchmark binary (one workload per process).
//
//   perfbench --workload sedov_bsp_4k|sedov_overlap_2k|serve_mix
//             --seed N --seconds S --trace 0|1
//             --expected-dir DIR --work-dir DIR [--spans-out FILE]
//             [--record]
//
// Untraced runs (--trace 0) measure the end-to-end metrics; traced runs
// (--trace 1) record spans around every public call the benchmark makes
// and report the per-layer metrics, including a step replay of the
// workload's own mesh and policy. Every job's report text is checked
// against the expected text stored for the seed, or, for a seed without
// one, against the cross-path identities (sliced advance equals run();
// a serve tenant equals its standalone run). Human-readable lines go to
// stdout; the last line is one JSON object for perfbench/run.py.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "amr/common/rng.hpp"
#include "amr/placement/registry.hpp"
#include "amr/serve/query_endpoint.hpp"
#include "amr/serve/scheduler.hpp"
#include "amr/sim/sim_driver.hpp"
#include "replay.hpp"
#include "spans.hpp"

namespace {

using namespace amr;
using perfbench::now_ns;
using perfbench::ScopedSpan;
using perfbench::SpanLog;

// Sedov jobs: 10 steps reach the paper's refined front (4096 -> ~14.6K
// blocks at 4096 ranks) with regrids at steps 0 and 5; the replay
// rebuilds the step-5 regrid window.
constexpr std::int64_t kSedovSteps = 10;
constexpr std::int64_t kSedovReplayStep = 5;
constexpr int kReplayWindows = 3;
constexpr int kQueryRepsPerJob = 6;  // 120 queries per job
// serve_mix: 16 tenants of 16 steps sliced 4 steps at a time, so every
// tenant is scheduled four times and a tight resident budget evicts.
// Slices run on one worker: with two, drain times spread 28% between runs
// on a shared 4-core host, and malloc's per-thread arenas made peak RSS
// spread 84-148 MiB.
constexpr int kServeJobs = 1;
constexpr std::int64_t kServeSteps = 16;
constexpr std::int64_t kServeQuantum = 4;
constexpr std::int64_t kServeResidentMb = 4;
constexpr std::int64_t kServeReplayStep = 5;
constexpr int kQueryRepsPerRound = 2;  // 640 queries per round
// A p99 needs at least 10 samples beyond it.
constexpr std::size_t kMinQueries = 1000;
// One setup probe (construction + begin) every this many queries spreads
// the setup samples through the run instead of taking them back to back.
constexpr int kQueriesPerProbe = 16;

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string expected_dir = "perfbench/expected";
  std::string work_dir = ".";
  std::string spans_out;  ///< traced runs; default <work-dir>/spans-<workload>.json
  bool record = false;
};

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record") {
      o.record = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value, &used);
      } else if (flag == "--trace") {
        o.trace = std::stoi(value, &used) != 0;
      } else if (flag == "--expected-dir") {
        o.expected_dir = value;
      } else if (flag == "--work-dir") {
        o.work_dir = value;
      } else if (flag == "--spans-out") {
        o.spans_out = value;
      } else {
        return false;
      }
      if (used != 0 && used != value.size()) return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0.0;
}

// ---------------------------------------------------------------------
// Samples, metrics, correctness

double seconds_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// Linear-interpolated quantile (Python's statistics "inclusive" rule).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double at = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(at));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (at - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

std::string sample_note(const std::string& what, std::size_t n) {
  return "median of " + std::to_string(n) + " " + what;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

class Report {
 public:
  void put(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_.push_back({name, value, unit, note});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Counts attempted operations and the ones that failed: a text
/// mismatch, an exception, a rejected job or a query error.
class Gate {
 public:
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failed_ <= 20) std::printf("FAILED: %s\n", what.c_str());
    }
  }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out.flush());
}

std::string expected_path(const Options& o) {
  return o.expected_dir + "/" + o.workload + "-seed" +
         std::to_string(o.seed) + ".txt";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double mib(std::size_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

bool show_packing(const JobSpec& spec) {
  return spec.aggregate || spec.comm_adaptive;
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.uniform_int(i)]);
}

// ---------------------------------------------------------------------
// Jobs

/// SimDriver's construction (validate, config, workload, policy,
/// Simulation) with the benchmark seed in SimulationConfig::seed, which
/// JobSpec does not carry.
struct Job {
  SimulationConfig config;
  std::unique_ptr<Workload> workload;
  PolicyPtr policy;
  std::unique_ptr<Simulation> sim;
};

std::unique_ptr<Job> make_job(const JobSpec& spec, std::uint64_t seed) {
  const std::string err = validate_job(spec);
  if (!err.empty()) throw std::runtime_error(err);
  auto job = std::make_unique<Job>();
  JobSpec unfaulted = spec;
  unfaulted.fault_nodes = 0;
  job->config = job_config(unfaulted);
  job->config.seed = seed;
  add_fault_schedule(job->config, spec.fault_nodes, spec.steps);
  job->workload = make_job_workload(spec);
  if (!job->workload) throw std::runtime_error("unknown workload");
  job->policy = make_policy(spec.policy);
  job->sim = std::make_unique<Simulation>(job->config, *job->workload,
                                          *job->policy);
  return job;
}

JobSpec sedov_spec(const std::string& workload) {
  JobSpec s;
  s.workload = "sedov";
  s.policy = "cpl50";
  s.steps = kSedovSteps;
  if (workload == "sedov_bsp_4k") {
    s.ranks = 4096;
  } else {
    s.ranks = 2048;
    s.overlap = true;
    s.comm_adaptive = true;
    s.send_priority = true;
  }
  return s;
}

std::string describe(const JobSpec& s) {
  std::string d = s.workload + " ranks=" + std::to_string(s.ranks) +
                  " steps=" + std::to_string(s.steps) +
                  " policy=" + s.policy + (s.overlap ? " overlap" : " bsp");
  if (s.comm_adaptive) d += " comm_adaptive";
  if (s.send_priority) d += " send_priority";
  if (s.auto_cplx) d += " auto_cplx";
  if (s.placement_incremental) d += " placement_incremental";
  if (s.fault_nodes > 0) d += " faults=" + std::to_string(s.fault_nodes);
  return d;
}

/// Seeded serve_mix tenants in submission order. Slot i holds a tenant of
/// class kServeClasses[i % 4] — (sedov|cooling, 256|512 ranks) — so every
/// seed submits the same class sequence and the two-wide batches pair the
/// same classes. Each class has one tenant of each execution shape (BSP,
/// BSP + comm_adaptive, overlap, overlap + comm_adaptive +
/// send_priority), placed in the class's slots by the seed. The seed also
/// deals the policies (baseline x3, cpl50 x4, lpt x3, auto_cplx x3,
/// placement_incremental x3) and the four fault tenants over the slots.
std::vector<JobSpec> serve_tenants(std::uint64_t seed) {
  struct Class {
    const char* workload;
    std::int64_t ranks;
  };
  static const Class kServeClasses[4] = {
      {"sedov", 512}, {"cooling", 256}, {"sedov", 256}, {"cooling", 512}};
  Rng rng(seed ^ 0x5e7e5e7eULL);
  std::vector<int> kinds = {0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4};
  std::vector<int> faults(kinds.size(), 0);
  faults[0] = faults[1] = 1;
  faults[2] = faults[3] = 2;
  shuffle(kinds, rng);
  shuffle(faults, rng);
  std::vector<std::vector<int>> shapes(4, std::vector<int>{0, 1, 2, 3});
  for (auto& order : shapes) shuffle(order, rng);
  std::vector<JobSpec> out(kinds.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Class& c = kServeClasses[i % 4];
    const int shape = shapes[i % 4][i / 4];
    JobSpec& s = out[i];
    s.id = "t";
    s.id += std::to_string(i);
    s.workload = c.workload;
    s.ranks = c.ranks;
    s.steps = kServeSteps;
    s.overlap = shape >= 2;
    s.comm_adaptive = shape % 2 == 1;
    s.send_priority = shape == 3;
    s.fault_nodes = faults[i];
    s.policy = kinds[i] == 0 ? "baseline" : kinds[i] == 2 ? "lpt" : "cpl50";
    s.auto_cplx = kinds[i] == 3;
    s.placement_incremental = kinds[i] == 4;
  }
  return out;
}

struct Query {
  std::size_t table;  ///< index of the job tables it reads
  std::string text;
};

/// Seeded query stream over `tables` sets of job tables. Each repetition
/// gives every table one query of each of 20 template slots (5 row scans,
/// 4 phase sums, 4 comm means, 3 rank counts, 2 placement scans, 2
/// per-rank tails), with literals spread evenly over their range, so
/// every seed runs the same multiset of queries; the seed sets their
/// order.
std::vector<Query> query_stream(std::uint64_t seed, std::size_t tables,
                                int reps, std::int64_t steps) {
  static const int kMix[20] = {0, 0, 0, 0, 0, 1, 1, 1, 1, 2,
                               2, 2, 2, 3, 3, 3, 4, 4, 5, 5};
  std::vector<Query> out;
  char buf[256];
  for (std::size_t table = 0; table < tables; ++table) {
    int seen[6] = {0, 0, 0, 0, 0, 0};  // occurrences so far per template
    for (int rep = 0; rep < reps; ++rep) {
      for (const int t : kMix) {
        const int m = seen[t]++;
        const int occurrences =
            reps * static_cast<int>(std::count(std::begin(kMix),
                                               std::end(kMix), t));
        const auto step =
            static_cast<long long>(m * steps / occurrences);
        switch (t) {
          case 0:
            std::snprintf(buf, sizeof(buf),
                          "select * from phases where step == %lld and "
                          "rank < %d limit 20",
                          step, 1 + (m * 37) % 64);
            break;
          case 1:
            std::snprintf(buf, sizeof(buf),
                          "select sum(dur_ns) as total, p95(dur_ns) from "
                          "phases where phase == %d group by step order by "
                          "total desc limit 5",
                          m % 4);
            break;
          case 2:
            std::snprintf(buf, sizeof(buf),
                          "select mean(recv_wait_ns), max(bytes_remote) "
                          "from comm where step >= %lld group by step",
                          step);
            break;
          case 3:
            std::snprintf(buf, sizeof(buf),
                          "select count, sum(msgs_remote) as remote from "
                          "comm where msgs_remote > %d group by rank order "
                          "by remote desc limit 10",
                          (m * 53) % 200);
            break;
          case 4:
            std::snprintf(buf, sizeof(buf),
                          "select * from placement where step >= %lld "
                          "limit 8",
                          step);
            break;
          default:
            std::snprintf(buf, sizeof(buf),
                          "select p50(dur_ns), p99(dur_ns) as tail from "
                          "phases where step >= %lld group by rank order "
                          "by tail desc limit 10",
                          step);
            break;
        }
        out.push_back({table, buf});
      }
    }
  }
  Rng rng(seed ^ 0x9e11e5ULL);
  shuffle(out, rng);
  return out;
}

serve::JobTables tables_of(const Collector& c) {
  return {&c.phases(), &c.comm(), &c.blocks(), &c.shards(), &c.placement()};
}

serve::JobTables tables_of(const serve::JobResult& r) {
  return {r.phases.get(), r.comm.get(), r.blocks.get(), r.shards.get(),
          r.placement.get()};
}

/// Collector placement-table summary of one job (engine modes only).
struct PlacementRows {
  std::int64_t chunks_reused = 0;
  std::int64_t chunks_total = 0;
  double err_sum = 0.0;
  std::int64_t err_rows = 0;
};

void add_placement_rows(const Table* t, PlacementRows& acc) {
  if (t == nullptr || t->num_rows() == 0) return;
  for (const std::int64_t v : t->i64("chunks_reused")) acc.chunks_reused += v;
  for (const std::int64_t v : t->i64("chunks_total")) acc.chunks_total += v;
  const std::span<const std::int64_t> mode = t->i64("mode");
  const std::span<const double> err = t->f64("err_ewma");
  for (std::size_t i = 0; i < t->num_rows(); ++i) {
    if (mode[i] < 0) continue;  // not an auto-X epoch
    acc.err_sum += err[i];
    ++acc.err_rows;
  }
}

// ---------------------------------------------------------------------
// Shared measurement state of one run

struct Run {
  Options opts;
  /// SimulationConfig::seed of setup probes: the benchmark seed for the
  /// Sedov jobs, SimDriver's default for serve tenants.
  std::uint64_t probe_seed = SimulationConfig{}.seed;
  SpanLog log;
  Gate gate;
  Report report;
  std::vector<double> setup_s;
  std::vector<double> query_ms;
  // Traced runs only.
  std::vector<double> sps_traced, sps_untraced;
  std::vector<double> save_ms, restore_ms;
  double snapshot_mb = 0.0;
};

double span_median_ms(const SpanLog& log, const char* name,
                      std::size_t* n = nullptr) {
  std::vector<double> v;
  for (const perfbench::Span& s : log.spans())
    if (std::string(s.name) == name)
      v.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
  if (n != nullptr) *n = v.size();
  return median(v);
}

/// One construction + begin of `spec`, timed into setup_s, then dropped.
void setup_probe(Run& run, const JobSpec& spec, std::uint64_t seed) {
  ScopedSpan probe(run.log, "setup_probe");
  try {
    const std::int64_t t0 = now_ns();
    std::unique_ptr<Job> job;
    {
      ScopedSpan s(run.log, "construct");
      job = make_job(spec, seed);
    }
    {
      ScopedSpan s(run.log, "begin");
      job->sim->begin();
    }
    run.setup_s.push_back(seconds_between(t0, now_ns()));
    run.gate.check(true, "setup probe");
  } catch (const std::exception& e) {
    run.gate.check(false, std::string("setup probe: ") + e.what());
  }
}

/// Run `queries` against one job's tables; outputs must match `ref`
/// (filled on first use), since equal streams over equal tables give
/// equal text. Every kQueriesPerProbe-th query is preceded by a setup
/// probe of probe_specs[probe_next++ % size].
void run_queries(Run& run, const std::vector<serve::JobTables>& tables,
                 const std::vector<Query>& queries,
                 std::vector<std::string>& ref,
                 const std::vector<JobSpec>& probe_specs,
                 std::size_t& probe_next) {
  const bool fill = ref.empty();
  for (std::size_t q = 0; q < queries.size(); ++q) {
    if (q % kQueriesPerProbe == kQueriesPerProbe / 2) {
      setup_probe(run, probe_specs[probe_next % probe_specs.size()],
                  run.probe_seed);
      ++probe_next;
    }
    std::string out;
    std::string err;
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan s(run.log, "run_table_query");
      err = serve::run_table_query(tables[queries[q].table],
                                   queries[q].text, out);
    }
    run.query_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    if (fill) ref.push_back(out);
    run.gate.check(err.empty() && out == ref[q],
                   "query '" + queries[q].text + "'" +
                       (err.empty() ? " changed its output" : ": " + err));
  }
}

/// Traced runs: save and restore `spec` at three step boundaries of one
/// job, continuing on the restored Simulation each time; the final text
/// must still equal `expected`.
void checkpoint_round_trips(Run& run, const JobSpec& spec,
                            std::uint64_t seed, const std::string& expected) {
  const std::string path = run.opts.work_dir + "/perfbench_ckpt.amrs";
  try {
    std::unique_ptr<Job> job = make_job(spec, seed);
    job->sim->begin();
    const std::int64_t marks[] = {spec.steps / 4, spec.steps / 2,
                                  (3 * spec.steps) / 4};
    for (const std::int64_t mark : marks) {
      job->sim->advance(mark - job->sim->current_step());
      std::int64_t t0 = now_ns();
      bool saved = false;
      {
        ScopedSpan s(run.log, "save_checkpoint");
        saved = job->sim->save_checkpoint(path);
      }
      run.save_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      run.gate.check(saved, "save_checkpoint");
      if (!saved) return;
      std::ifstream f(path, std::ios::binary | std::ios::ate);
      run.snapshot_mb = mib(static_cast<std::size_t>(f.tellg()));
      std::unique_ptr<Job> restored = make_job(spec, seed);
      t0 = now_ns();
      {
        ScopedSpan s(run.log, "restore_checkpoint");
        restored->sim->restore_checkpoint(path);
      }
      run.restore_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      job = std::move(restored);
    }
    job->sim->advance(spec.steps);
    const std::string text =
        compact_report_text(job->sim->finish(), show_packing(spec));
    run.gate.check(text == expected, "checkpoint round trip changed " +
                                         describe(spec) + " output");
  } catch (const std::exception& e) {
    run.gate.check(false, std::string("checkpoint round trip: ") + e.what());
  }
  std::remove(path.c_str());
}

void put_replay(Run& run, const JobSpec& spec, std::int64_t at_step) {
  run.log.set_enabled(true);
  const perfbench::ReplayCounts r =
      perfbench::replay_step(spec, at_step, kReplayWindows, run.log);
  const std::string where = "replay of step " + std::to_string(at_step) +
                            " (" + std::to_string(r.blocks) + " blocks) of " +
                            describe(spec);
  Report& rep = run.report;
  rep.put("des.events_per_step", r.events_per_step, "count", where);
  rep.put("des.ns_per_event", r.ns_per_event, "ns",
          "median of " + std::to_string(kReplayWindows) + " windows");
  rep.put("exec.execute_ms", r.execute_ms, "ms",
          "median of " + std::to_string(kReplayWindows) + " windows");
  rep.put("net.transfers_per_step", r.transfers_per_step, "count", where);
  rep.put("net.remote_bytes_per_step", r.remote_bytes_per_step, "bytes",
          where);
  rep.put("net.shm_retries", r.shm_retries_per_step, "count",
          "per step, " + where);
  rep.put("simmpi.msgs_per_step", r.msgs_per_step, "count", where);
  rep.put("simmpi.coalesced_frac", r.coalesced_frac, "frac", where);
  rep.put("exec.plan_build_ms", r.plan_build_ms, "ms", where);
  rep.put("mesh.evolve_ms", r.evolve_ms, "ms",
          "evolve of steps 0.." + std::to_string(at_step));
}

void put_traced_common(Run& run) {
  Report& rep = run.report;
  std::size_t n = 0;
  const double begin_ms = span_median_ms(run.log, "begin", &n);
  rep.put("sim.begin_ms", begin_ms, "ms", sample_note("begin spans", n));
  const double step_ms = span_median_ms(run.log, "advance", &n);
  rep.put("sim.step_ms_p50", step_ms, "ms", sample_note("advance(1) spans", n));
  const double finish_ms = span_median_ms(run.log, "finish", &n);
  rep.put("sim.finish_ms", finish_ms, "ms", sample_note("finish spans", n));
  rep.put("io.save_ms", median(run.save_ms), "ms",
          sample_note("saves", run.save_ms.size()));
  rep.put("io.restore_ms", median(run.restore_ms), "ms",
          sample_note("restores", run.restore_ms.size()));
  rep.put("io.snapshot_mb", run.snapshot_mb, "MiB", "last snapshot written");
  const double traced = median(run.sps_traced);
  const double untraced = median(run.sps_untraced);
  rep.put("trace.overhead_frac",
          untraced > 0.0 ? 1.0 - traced / untraced : 0.0, "frac",
          "1 - traced/untraced steps_per_s over " +
              std::to_string(run.sps_traced.size()) + "+" +
              std::to_string(run.sps_untraced.size()) +
              " alternating jobs or rounds");
}

void put_end_to_end_common(Run& run) {
  Report& rep = run.report;
  rep.put("setup_s", median(run.setup_s), "s",
          sample_note("constructions + begin spread through the run",
                      run.setup_s.size()));
  rep.put("peak_rss_mb", peak_rss_mb(), "MiB", "getrusage ru_maxrss");
  const std::size_t n = run.query_ms.size();
  rep.put("query_ms_p50", median(run.query_ms), "ms",
          "n=" + std::to_string(n));
  rep.put("query_ms_p99", quantile(run.query_ms, 0.99), "ms",
          "n=" + std::to_string(n) + ", " +
              std::to_string(n - static_cast<std::size_t>(
                                     std::ceil(0.99 * static_cast<double>(n)))) +
              " samples beyond");
}

// ---------------------------------------------------------------------
// Sedov workloads: one job per iteration, each step timed in-process.

void run_sedov(Run& run) {
  const Options& o = run.opts;
  const JobSpec spec = sedov_spec(o.workload);
  const std::vector<JobSpec> probe_specs = {spec};
  run.probe_seed = o.seed;
  std::size_t probe_next = 0;

  // Reference text: stored for this seed, else one run() — sliced
  // advance(1) jobs must reproduce it either way.
  std::string expected;
  const std::optional<std::string> stored = read_file(expected_path(o));
  if (stored && !o.record) {
    expected = *stored;
    std::printf("gate: stored expected text %s\n", expected_path(o).c_str());
  } else {
    expected = compact_report_text(make_job(spec, o.seed)->sim->run(),
                                   show_packing(spec));
    std::printf("gate: no stored text for seed %llu; sliced jobs must equal "
                "run()\n",
                static_cast<unsigned long long>(o.seed));
    if (o.record && !write_file(expected_path(o), expected))
      throw std::runtime_error("cannot write " + expected_path(o));
  }

  if (o.trace) {
    put_replay(run, spec, kSedovReplayStep);
    checkpoint_round_trips(run, spec, o.seed, expected);
  }

  const std::vector<Query> queries =
      query_stream(o.seed, 1, kQueryRepsPerJob, spec.steps);
  std::vector<std::string> query_ref;
  std::vector<double> steps_per_s, jobs_per_s, place_ms;
  std::int64_t blocks_final = 0, blocks_moved = 0;
  double plan_hit_ratio = 0.0, table_mb = 0.0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  const std::int64_t failed_before = run.gate.failed();
  for (int j = 0; j == 0 || now_ns() < deadline ||
                  (run.query_ms.size() < kMinQueries &&
                   run.gate.failed() == failed_before);
       ++j) {
    // Traced runs alternate spans on and off per job; the steps/s gap
    // between the two halves is the tracing overhead.
    const bool traced = o.trace && j % 2 == 0;
    run.log.set_enabled(traced);
    run.log.set_run(j);
    ScopedSpan job_span(run.log, "job");
    try {
      const std::int64_t t0 = now_ns();
      std::unique_ptr<Job> job;
      {
        ScopedSpan s(run.log, "construct");
        job = make_job(spec, o.seed);
      }
      {
        ScopedSpan s(run.log, "begin");
        job->sim->begin();
      }
      run.setup_s.push_back(seconds_between(t0, now_ns()));
      std::int64_t advance_ns = 0;
      for (std::int64_t step = 0; step < spec.steps; ++step) {
        const std::int64_t ta = now_ns();
        {
          ScopedSpan s(run.log, "advance");
          job->sim->advance(1);
        }
        advance_ns += now_ns() - ta;
      }
      RunReport rep;
      {
        ScopedSpan s(run.log, "finish");
        rep = job->sim->finish();
      }
      const double job_s = seconds_between(t0, now_ns());
      const double sps = static_cast<double>(spec.steps) /
                         (static_cast<double>(advance_ns) * 1e-9);
      steps_per_s.push_back(sps);
      jobs_per_s.push_back(1.0 / job_s);
      if (o.trace) (traced ? run.sps_traced : run.sps_untraced).push_back(sps);
      std::printf("job %d: %.4f steps/s, setup %.3f ms, %.3f s\n", j, sps,
                  run.setup_s.back() * 1e3, job_s);
      run.gate.check(compact_report_text(rep, show_packing(spec)) == expected,
                     "job " + std::to_string(j) + " report text differs");
      place_ms.insert(place_ms.end(), rep.placement_ms.begin(),
                      rep.placement_ms.end());
      blocks_final = static_cast<std::int64_t>(rep.final_blocks);
      blocks_moved = rep.blocks_migrated;
      const StepPipelineStats& ps = job->sim->pipeline_stats();
      plan_hit_ratio = static_cast<double>(ps.plan_hits) /
                       static_cast<double>(std::max<std::int64_t>(
                           1, ps.plan_hits + ps.plan_misses));
      table_mb = mib(job->sim->collector().bytes_used());
      run_queries(run, {tables_of(job->sim->collector())}, queries,
                  query_ref, probe_specs, probe_next);
    } catch (const std::exception& e) {
      run.gate.check(false, std::string("job: ") + e.what());
    }
  }

  Report& rep = run.report;
  if (!o.trace) {
    rep.put("steps_per_s", median(steps_per_s), "1/s",
            sample_note("jobs of " + std::to_string(spec.steps) +
                            " timed advance(1) steps",
                        steps_per_s.size()));
    rep.put("jobs_per_s", median(jobs_per_s), "1/s",
            sample_note("jobs (setup + steps + finish)", jobs_per_s.size()));
    put_end_to_end_common(run);
    return;
  }
  put_traced_common(run);
  rep.put("exec.plan_hit_ratio", plan_hit_ratio, "frac",
          "pipeline_stats of the last job");
  rep.put("serve.share_hit_ratio", 0.0, "frac", "no scheduler here");
  rep.put("placement.place_ms", median(place_ms), "ms",
          sample_note("RunReport placement_ms entries", place_ms.size()));
  rep.put("placement.blocks_moved", static_cast<double>(blocks_moved),
          "count", "RunReport blocks_migrated per job");
  rep.put("placement.chunk_reuse_ratio", 0.0, "frac",
          "no placement-engine job here");
  rep.put("placement.tuner_err", 0.0, "frac", "no auto-X job here");
  rep.put("mesh.blocks_final", static_cast<double>(blocks_final), "count",
          "RunReport final_blocks");
  rep.put("serve.evictions", 0.0, "count", "no scheduler here");
  rep.put("serve.restores", 0.0, "count", "no scheduler here");
  rep.put("telemetry.table_mb", table_mb, "MiB", "Collector tables of a job");
}

// ---------------------------------------------------------------------
// serve_mix: closed-loop rounds of one QuantumScheduler each.

void run_serve(Run& run) {
  const Options& o = run.opts;
  const std::vector<JobSpec> tenants = serve_tenants(o.seed);
  std::size_t probe_next = 0;
  std::printf("serve_mix: %zu tenants, serve_jobs=%d, quantum=%lld, "
              "max_resident_mb=%lld\n",
              tenants.size(), kServeJobs,
              static_cast<long long>(kServeQuantum),
              static_cast<long long>(kServeResidentMb));

  // Standalone runs: the per-tenant reference texts (and setup samples).
  std::vector<std::string> standalone;
  std::string listing;
  run.log.set_enabled(o.trace);
  for (const JobSpec& spec : tenants) {
    ScopedSpan job_span(run.log, "standalone");
    std::string text;
    try {
      const std::int64_t t0 = now_ns();
      std::unique_ptr<SimDriver> driver;
      {
        ScopedSpan s(run.log, "construct");
        driver = std::make_unique<SimDriver>(spec);
      }
      {
        ScopedSpan s(run.log, "begin");
        driver->sim().begin();
      }
      run.setup_s.push_back(seconds_between(t0, now_ns()));
      for (std::int64_t step = 0; step < spec.steps; ++step) {
        ScopedSpan s(run.log, "advance");
        driver->sim().advance(1);
      }
      RunReport rep;
      {
        ScopedSpan s(run.log, "finish");
        rep = driver->sim().finish();
      }
      text = compact_report_text(rep, show_packing(spec));
      run.gate.check(true, "standalone " + describe(spec));
    } catch (const std::exception& e) {
      run.gate.check(false, "standalone " + describe(spec) + ": " + e.what());
    }
    standalone.push_back(text);
    listing += "## " + spec.id + " " + describe(spec) + "\n" + text;
  }
  const std::optional<std::string> stored = read_file(expected_path(o));
  if (o.record) {
    if (!write_file(expected_path(o), listing))
      throw std::runtime_error("cannot write " + expected_path(o));
  } else if (stored) {
    std::printf("gate: stored expected text %s\n", expected_path(o).c_str());
    run.gate.check(*stored == listing,
                   "standalone tenant texts differ from " + expected_path(o));
  } else {
    std::printf("gate: no stored text for seed %llu; tenants must equal "
                "their standalone runs\n",
                static_cast<unsigned long long>(o.seed));
  }

  if (o.trace) {
    // The replay and checkpoint use a fixed sedov-512 cpl50 BSP tenant,
    // so their counts do not depend on the seed's tenant deal.
    JobSpec rep_spec;
    rep_spec.workload = "sedov";
    rep_spec.ranks = 512;
    rep_spec.steps = kServeSteps;
    rep_spec.policy = "cpl50";
    put_replay(run, rep_spec, kServeReplayStep);
    checkpoint_round_trips(
        run, rep_spec, run.probe_seed,
        compact_report_text(SimDriver(rep_spec).run(), false));
  }

  const std::vector<Query> queries =
      query_stream(o.seed, tenants.size(), kQueryRepsPerRound, kServeSteps);
  std::vector<std::string> query_ref;
  std::vector<double> jobs_per_s, steps_per_s, place_ms;
  serve::SchedulerStats last;
  std::int64_t blocks_moved = 0, blocks_final = 0;
  double table_mb = 0.0;
  PlacementRows placement_rows;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  const std::int64_t failed_before = run.gate.failed();
  for (int r = 0; r == 0 || now_ns() < deadline ||
                  (run.query_ms.size() < kMinQueries &&
                   run.gate.failed() == failed_before);
       ++r) {
    const bool traced = o.trace && r % 2 == 0;
    run.log.set_enabled(traced);
    run.log.set_run(r);
    ScopedSpan round_span(run.log, "round");
    serve::ServeOptions so;
    so.quantum_steps = kServeQuantum;
    so.serve_jobs = kServeJobs;
    so.max_resident_mb = kServeResidentMb;
    so.spill_dir = o.work_dir;
    so.share_plans = true;
    serve::QuantumScheduler sched(so);
    for (const JobSpec& spec : tenants) {
      ScopedSpan s(run.log, "submit");
      sched.submit(spec);
    }
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan s(run.log, "drain");
      sched.drain();
    }
    const double drain_s = seconds_between(t0, now_ns());
    const auto n = static_cast<double>(tenants.size());
    std::printf("round %d: drain %.3f s, %.4f jobs/s\n", r, drain_s,
                n / drain_s);
    jobs_per_s.push_back(n / drain_s);
    steps_per_s.push_back(n * static_cast<double>(kServeSteps) / drain_s);
    if (o.trace)
      (traced ? run.sps_traced : run.sps_untraced)
          .push_back(steps_per_s.back());

    std::vector<serve::JobTables> tables;
    blocks_moved = blocks_final = 0;
    table_mb = 0.0;
    placement_rows = {};
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      const serve::JobResult* res =
          sched.result(static_cast<std::int64_t>(i));
      const bool ok = res != nullptr && res->ok && res->text == standalone[i];
      run.gate.check(ok, "round " + std::to_string(r) + " tenant " +
                             describe(tenants[i]) +
                             (res == nullptr  ? " has no result"
                              : !res->ok      ? " rejected: " + res->error
                                              : " differs from standalone"));
      if (res == nullptr || !res->ok || !res->phases) {
        tables.push_back({});
        continue;
      }
      tables.push_back(tables_of(*res));
      place_ms.insert(place_ms.end(), res->report.placement_ms.begin(),
                      res->report.placement_ms.end());
      blocks_moved += res->report.blocks_migrated;
      blocks_final += static_cast<std::int64_t>(res->report.final_blocks);
      for (const Table* t : {res->phases.get(), res->comm.get(),
                             res->blocks.get(), res->shards.get(),
                             res->placement.get()})
        table_mb += mib(t->bytes_used());
      add_placement_rows(res->placement.get(), placement_rows);
    }
    last = sched.stats();
    run_queries(run, tables, queries, query_ref, tenants, probe_next);
  }

  Report& rep = run.report;
  if (!o.trace) {
    rep.put("steps_per_s", median(steps_per_s), "1/s",
            sample_note("drains (tenant steps / drain time)",
                        steps_per_s.size()));
    rep.put("jobs_per_s", median(jobs_per_s), "1/s",
            sample_note("drains of " + std::to_string(tenants.size()) +
                            " jobs",
                        jobs_per_s.size()));
    put_end_to_end_common(run);
    return;
  }
  put_traced_common(run);
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  rep.put("exec.plan_hit_ratio",
          ratio(static_cast<double>(last.plan_hits),
                static_cast<double>(last.plan_hits + last.plan_misses)),
          "frac", "SchedulerStats of the last round");
  rep.put("serve.share_hit_ratio",
          ratio(static_cast<double>(last.plan_share_hits),
                static_cast<double>(last.plan_misses)),
          "frac", "shared-store fills per plan miss, last round");
  rep.put("placement.place_ms", median(place_ms), "ms",
          sample_note("RunReport placement_ms entries", place_ms.size()));
  rep.put("placement.blocks_moved", static_cast<double>(blocks_moved),
          "count", "sum over the tenants of a round");
  rep.put("placement.chunk_reuse_ratio",
          ratio(static_cast<double>(placement_rows.chunks_reused),
                static_cast<double>(placement_rows.chunks_total)),
          "frac", "Collector placement tables of a round");
  rep.put("placement.tuner_err",
          ratio(placement_rows.err_sum,
                static_cast<double>(placement_rows.err_rows)),
          "frac", "mean err_ewma over auto-X epochs of a round");
  rep.put("mesh.blocks_final", static_cast<double>(blocks_final), "count",
          "sum over the tenants of a round");
  rep.put("serve.evictions", static_cast<double>(last.evictions), "count",
          "SchedulerStats of the last round");
  rep.put("serve.restores", static_cast<double>(last.restores), "count",
          "SchedulerStats of the last round");
  rep.put("telemetry.table_mb", table_mb, "MiB",
          "tables kept for the tenants of a round");
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  if (!parse_args(argc, argv, run.opts)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--expected-dir D] [--work-dir D] "
                 "[--spans-out F] [--record]\n");
    return 2;
  }
  const Options& o = run.opts;
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  try {
    if (o.workload == "sedov_bsp_4k" || o.workload == "sedov_overlap_2k") {
      run_sedov(run);
    } else if (o.workload == "serve_mix") {
      run_serve(run);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   o.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  if (o.trace) {
    std::printf("span self time (ms):\n");
    for (const perfbench::SpanSummary& s : run.log.summary())
      std::printf("  %-20s n=%-6lld total %10.3f  self %10.3f\n",
                  s.name.c_str(), static_cast<long long>(s.count),
                  s.total_ms, s.self_ms);
    const std::string path = !o.spans_out.empty()
                                 ? o.spans_out
                                 : o.work_dir + "/spans-" + o.workload + ".json";
    if (!run.log.write_json(path))
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    else
      std::printf("spans written to %s\n", path.c_str());
  }

  std::string json = "{\"attempted\": " +
                     std::to_string(run.gate.attempted()) +
                     ", \"failed\": " + std::to_string(run.gate.failed()) +
                     ", \"env\": {\"build_type\": \"" PERFBENCH_BUILD_TYPE
                     "\", \"compiler\": \"" PERFBENCH_COMPILER
                     "\", \"hardware_threads\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     "}, \"metrics\": {";
  bool first = true;
  for (const Metric& m : run.report.metrics()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.9g", m.value);
    json += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + value + ", \"unit\": \"" + m.unit +
            "\", \"note\": \"" + json_escape(m.note) + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

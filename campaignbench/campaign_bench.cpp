// campaign_bench: the measuring program behind campaignbench/run.py.
//
// It runs one sweep workload (a SweepSpec JSON file that churnet_sweep
// --config accepts unmodified) through the shipped campaign path —
// SweepPlan -> SweepService::run -> SweepResult::write_csv — and prints one
// JSON object on stdout. Modes:
//
//   --mode setup  resolve the plan once and print the steady-clock instant
//                 it was ready; run.py subtracts the instant it launched the
//                 process, so set-up time runs from process start.
//   --mode run    repeat whole campaigns for about --seconds (at least one)
//                 and report each one's wall and CPU time. Every campaign's
//                 CSV must equal the first, which is written to --csv.
//   --mode trace  one untraced campaign, then a traced replay of every job
//                 through the public calls SweepPlan::run_job makes, in the
//                 same order, each timed from outside. Spans stay in memory
//                 and are written to --spans at the end; the per-layer
//                 metrics are printed. A replayed row that differs from
//                 run_job's row in any bit is a failed job.
//
// Nothing here changes the library: a trace is the benchmark's own view of
// the layer boundaries, taken around public calls.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "churnet/churnet.hpp"
#include "common/sinks.hpp"
#include "graph/change_feed.hpp"
#include "models/graph_view.hpp"

namespace {

using namespace churnet;
using Clock = std::chrono::steady_clock;

// Refuse to report numbers from a build a user would not run.
#if defined(__OPTIMIZE__) && defined(NDEBUG) && \
    !defined(CAMPAIGNBENCH_SANITIZED) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
constexpr bool kReportableBuild = true;
#else
constexpr bool kReportableBuild = false;
#endif

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "campaign_bench: %s\n", message.c_str());
  std::exit(1);
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Current resident set of the whole process (all threads), in MiB.
double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  unsigned long long size = 0;
  unsigned long long resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

SweepSpec load_spec(const std::string& path) {
  std::ifstream file(path);
  if (!file) die("cannot read spec file '" + path + "'");
  std::ostringstream text;
  text << file.rdbuf();
  std::string error;
  const std::optional<SweepSpec> spec =
      SweepSpec::from_json_text(text.str(), &error);
  if (!spec.has_value()) die(path + ": " + error);
  return *spec;
}

/// One campaign exactly as churnet_sweep runs it: the sweep service's
/// in-process pool, then the tidy CSV.
struct Campaign {
  SweepResult result;
  std::string csv;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

Campaign run_campaign(const SweepSpec& spec, unsigned threads) {
  SweepServiceOptions options;
  options.threads = threads;
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  SweepResult result = SweepService(spec, options).run();
  std::ostringstream csv;
  result.write_csv(csv);
  const std::int64_t t1 = now_ns();
  return Campaign{std::move(result), csv.str(), seconds_between(t0, t1),
                  cpu_seconds() - cpu0};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream file(path, std::ios::binary);
  file << bytes;
  if (!file) die("cannot write '" + path + "'");
}

void print_build(std::ostream& os) {
  os << "\"build\":{\"compiler\":";
  write_json_string(os, "gcc " __VERSION__);
  os << '}';
}

// ---- traced replay ---------------------------------------------------------

constexpr std::uint64_t kNoJob = ~std::uint64_t{0};

/// One timed call: name, start, end, the span that caused it, and the job
/// (trace id) it belongs to.
struct Span {
  const char* name;
  std::uint32_t id;
  std::uint32_t parent;
  std::uint64_t job;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// Counts read at the layer boundaries of one job.
struct JobCounts {
  double construct_rss_mb = 0.0;
  double rss_after_warmup_mb = 0.0;
  std::uint64_t warmup_events = 0;
  std::uint64_t steps = 0;
  std::uint64_t messages = 0;
  std::uint64_t useful = 0;
  std::uint64_t duplicate = 0;
};

/// The adversary rules whose victim selection the probe times.
struct ProbeRule {
  const char* metric;
  const char* span;
  AdversaryRule rule;
};
constexpr ProbeRule kProbeRules[] = {
    {"churn.select_us.maxdeg", "churn.select.maxdeg",
     AdversaryRule::kMaxDegree},
    {"churn.select_us.cutset", "churn.select.cutset", AdversaryRule::kCutSet},
    {"churn.select_us.eclipse", "churn.select.eclipse",
     AdversaryRule::kEclipse},
};
/// select() calls per rule per job: enough to drain a cutset victim queue
/// at the workloads' sizes, so the mean includes its rebuilds.
constexpr int kProbeCalls = 32;

/// The plan's grid, re-expanded from public pieces in SweepPlan's order
/// (scenario-major, then protocol axis, n, d).
struct ReplayCell {
  Scenario scenario;
  ProtocolSpec protocol;
  std::uint32_t n = 0;
  std::uint32_t d = 0;
};

std::vector<ReplayCell> expand_cells(const SweepPlan& plan) {
  const SweepSpec& spec = plan.spec();
  std::vector<ReplayCell> cells;
  for (const std::string& name : spec.scenarios) {
    const Scenario scenario = ScenarioRegistry::extended().resolve(name);
    std::vector<ProtocolSpec> axis;
    for (const std::string& text : spec.protocols) {
      axis.push_back(*ProtocolSpec::parse(text));  // validated by the plan
    }
    if (axis.empty()) axis.push_back(scenario.protocol());
    for (const ProtocolSpec& protocol : axis) {
      for (const std::uint32_t n : spec.n_values) {
        for (const std::uint32_t d : spec.d_values) {
          cells.push_back(ReplayCell{scenario, protocol, n, d});
        }
      }
    }
  }
  if (cells.size() != plan.keys().size()) die("replay grid != plan grid");
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const SweepCellKey& key = plan.keys()[c];
    const ReplayCell& cell = cells[c];
    if (key.scenario != cell.scenario.name() ||
        key.protocol != cell.protocol.canonical() || key.n != cell.n ||
        key.d != cell.d) {
      die("replay cell " + std::to_string(c) + " != plan cell " +
          key.scenario);
    }
  }
  return cells;
}

bool is_snapshot_metric(const std::string& m) {
  return m == "mean_degree" || m == "max_degree" || m == "isolated" ||
         m == "largest_component_frac";
}

bool is_flood_metric(const std::string& m) {
  return m == "completion_step" || m == "final_fraction" ||
         m == "peak_informed" || m == "flood_steps" || m == "messages" ||
         m == "useful_deliveries" || m == "duplicate_deliveries" ||
         m == "lost_messages";
}

class Replay {
 public:
  Replay(const SweepPlan& plan, std::vector<ReplayCell> cells)
      : plan_(plan),
        spec_(plan.spec()),
        cells_(std::move(cells)),
        rows_(plan.job_count()),
        counts_(plan.job_count()) {
    for (const std::string& m : spec_.metrics) {
      needs_snapshot_ |= is_snapshot_metric(m);
      needs_flood_ |= is_flood_metric(m);
    }
    observer_spec_ = *ObserverSpec::parse(spec_.observers);
    has_observers_ = !observer_spec_.empty();
  }

  /// Replays every job on `threads` workers (an atomic job index, like the
  /// sweep service's pool) and returns the pool's wall seconds.
  double run(unsigned threads, std::uint32_t root) {
    std::atomic<std::uint64_t> next{0};
    std::vector<Worker> workers(threads);
    std::exception_ptr error;
    std::mutex error_mutex;
    const std::int64_t t0 = now_ns();
    {
      std::vector<std::thread> pool;
      for (unsigned w = 0; w < threads; ++w) {
        pool.emplace_back([&, w] {
          try {
            for (std::uint64_t job = next++; job < plan_.job_count();
                 job = next++) {
              replay_job(workers[w], job, root);
            }
          } catch (...) {
            const std::lock_guard<std::mutex> lock(error_mutex);
            if (!error) error = std::current_exception();
          }
        });
      }
      for (std::thread& t : pool) t.join();
    }
    const std::int64_t t1 = now_ns();
    if (error) std::rethrow_exception(error);
    for (Worker& worker : workers) {
      spans_.insert(spans_.end(), worker.spans.begin(), worker.spans.end());
    }
    return seconds_between(t0, t1);
  }

  const std::vector<std::vector<double>>& rows() const { return rows_; }
  const std::vector<JobCounts>& counts() const { return counts_; }
  std::vector<Span>& spans() { return spans_; }
  const std::vector<ReplayCell>& cells() const { return cells_; }

  /// Span ids are process-unique; 0 is reserved for "no parent".
  static std::uint32_t next_span_id() {
    static std::atomic<std::uint32_t> id{1};
    return id++;
  }

 private:
  struct Worker {
    ObserverSet observers;
    ChangeFeed feed;
    ProtocolScratch scratch;
    std::unique_ptr<DisseminationProtocol> protocol;
    std::string protocol_key;
    std::vector<Span> spans;
  };

  /// Runs `fn` inside a span recorded on `worker`.
  template <typename Fn>
  static void timed(Worker& worker, const char* name, std::uint32_t parent,
                    std::uint64_t job, Fn&& fn) {
    Span span{name, next_span_id(), parent, job, now_ns(), 0};
    fn();
    span.end_ns = now_ns();
    worker.spans.push_back(span);
  }

  // Mirrors SweepPlan::run_job call for call; the comparison against
  // run_job's rows in trace mode proves it stays in step.
  void replay_job(Worker& worker, std::uint64_t job, std::uint32_t root) {
    const std::uint64_t cell_index = plan_.job_cell(job);
    const ReplayCell& cell = cells_[cell_index];
    JobCounts& counts = counts_[job];
    Span job_span{"engine.job", next_span_id(), root, job, now_ns(), 0};
    const std::uint32_t parent = job_span.id;

    ScenarioParams params;
    params.n = cell.n;
    params.d = cell.d;
    params.seed = plan_.job_seed(job);
    params.max_in_degree = spec_.max_in_degree;
    params.intra_threads = spec_.intra_threads;
    AnyNetwork net;
    timed(worker, "models.construct", parent, job, [&] {
      const double rss0 = rss_mb();
      net = cell.scenario.make(params);
      counts.construct_rss_mb = rss_mb() - rss0;
    });
    timed(worker, "models.warmup", parent, job, [&] {
      // Births and deaths from the graph's own counters: deaths are the
      // births that are no longer alive.
      const std::uint64_t births0 = net.graph().total_births();
      const std::uint64_t dead0 = births0 - net.graph().alive_count();
      net.warm_up();
      const std::uint64_t births1 = net.graph().total_births();
      const std::uint64_t dead1 = births1 - net.graph().alive_count();
      counts.warmup_events = (births1 - births0) + (dead1 - dead0);
    });
    counts.rss_after_warmup_mb = rss_mb();

    ObserverSet& observers = worker.observers;
    if (has_observers_) {
      if (observers.empty()) observers = make_observer_set(observer_spec_);
      const std::uint64_t trial_seed = derive_seed(params.seed, 2, 0);
      timed(worker, "observe.begin", parent, job, [&] {
        if (spec_.incremental_observers) {
          net.attach_change_feed(&worker.feed);
          observers.begin_incremental_trial(trial_seed, net.graph(),
                                            net.now());
          for (std::uint32_t r = 0; r < observers.observation_rounds(); ++r) {
            worker.feed.clear();
            net.step();
            observers.on_round(net.graph(), net.now());
            observers.on_deltas(net.graph(), worker.feed.deltas(), net.now());
          }
          net.attach_change_feed(nullptr);
        } else {
          observers.begin_trial(trial_seed);
          for (std::uint32_t r = 0; r < observers.observation_rounds(); ++r) {
            net.step();
            observers.on_round(net.graph(), net.now());
          }
        }
      });
    }

    const double alive = static_cast<double>(net.graph().alive_count());
    const Snapshot* snap = nullptr;
    if (has_observers_) {
      timed(worker, "observe.observe", parent, job,
            [&] { snap = observers.observe(net.graph(), net.now()); });
    }
    Snapshot local;
    if (needs_snapshot_ && snap == nullptr) {
      timed(worker, "graph.snapshot", parent, job, [&] {
        local = net.snapshot();
        snap = &local;
      });
    }
    DegreeStats degrees;
    Components components;
    if (needs_snapshot_) {
      timed(worker, "graph.analyze", parent, job, [&] {
        degrees = degree_stats(*snap);
        components = connected_components(*snap);
      });
    }

    FloodTrace trace;
    ProtocolStats stats;
    if (needs_flood_ || (has_observers_ && observers.wants_dissemination())) {
      const std::string& key = plan_.keys()[cell_index].protocol;
      if (worker.protocol == nullptr || worker.protocol_key != key) {
        worker.protocol = make_protocol(cell.protocol);
        worker.protocol_key = key;
      }
      ProtocolOptions options =
          protocol_options(cell.protocol, derive_seed(params.seed, 1, 0));
      options.flood.intra_threads = spec_.intra_threads;
      const bool flood = cell.protocol.kind == ProtocolSpec::Kind::kFlood;
      ProtocolResult run;
      timed(worker, flood ? "protocols.flood" : "protocols.gossip", parent,
            job, [&] {
              run = net.disseminate(*worker.protocol, options, worker.scratch);
            });
      if (has_observers_) observers.on_dissemination(run.trace, &run.stats);
      trace = std::move(run.trace);
      stats = run.stats;
    }
    counts.steps = trace.steps;
    counts.messages = stats.total_messages();
    counts.useful = stats.useful_deliveries;
    counts.duplicate = stats.duplicate_deliveries;

    std::vector<double>& values = rows_[job];
    for (const std::string& m : spec_.metrics) {
      double v = std::nan("");
      if (m == "alive") v = alive;
      else if (m == "mean_degree") v = degrees.mean;
      else if (m == "max_degree") v = static_cast<double>(degrees.max);
      else if (m == "isolated") v = static_cast<double>(degrees.isolated);
      else if (m == "largest_component_frac") {
        v = alive > 0.0 ? static_cast<double>(components.largest_size) / alive
                        : std::nan("");
      } else if (m == "completion_step") {
        v = trace.completed ? static_cast<double>(trace.completion_step)
                            : std::nan("");
      } else if (m == "final_fraction") v = trace.final_fraction;
      else if (m == "peak_informed") {
        v = static_cast<double>(trace.peak_informed);
      }
      else if (m == "flood_steps") v = static_cast<double>(trace.steps);
      else if (m == "messages") v = static_cast<double>(stats.total_messages());
      else if (m == "useful_deliveries") {
        v = static_cast<double>(stats.useful_deliveries);
      } else if (m == "duplicate_deliveries") {
        v = static_cast<double>(stats.duplicate_deliveries);
      } else if (m == "lost_messages") {
        v = static_cast<double>(stats.lost_messages);
      }
      values.push_back(v);
    }
    if (has_observers_) observers.append_values(values);
    job_span.end_ns = now_ns();
    worker.spans.push_back(job_span);

    // Victim-selection probe on this job's warmed graph, outside the job
    // span: every rule on every workload, with a policy seeded like the
    // network's own adversary stream.
    const DynamicGraphView view(net.graph());
    for (const ProbeRule& rule : kProbeRules) {
      AdversaryPolicy policy(AdversaryConfig{rule.rule, 1.0},
                             adversary_seed(params.seed));
      timed(worker, rule.span, root, job, [&] {
        for (int call = 0; call < kProbeCalls; ++call) {
          (void)policy.select(view);
        }
      });
    }
  }

  const SweepPlan& plan_;
  const SweepSpec& spec_;
  std::vector<ReplayCell> cells_;
  bool needs_snapshot_ = false;
  bool needs_flood_ = false;
  ObserverSpec observer_spec_;
  bool has_observers_ = false;
  std::vector<std::vector<double>> rows_;
  std::vector<JobCounts> counts_;
  std::vector<Span> spans_;
};

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Nearest-rank quantile of an ascending vector.
double quantile(const std::vector<double>& sorted, double q) {
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

/// The cell of `cells` running `cell` under its model's default churn, or
/// -1 when the grid has none (the adversary-overhead baseline).
long base_cell_of(const std::vector<ReplayCell>& cells, std::size_t cell) {
  const ReplayCell& adv = cells[cell];
  const ChurnSpec::Kind base_kind =
      adv.scenario.model() == ModelKind::kStreaming
          ? ChurnSpec::Kind::kStream
          : ChurnSpec::Kind::kJumpChain;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const ReplayCell& other = cells[c];
    if (other.scenario.model() == adv.scenario.model() &&
        other.scenario.policy() == adv.scenario.policy() &&
        other.scenario.churn().kind == base_kind &&
        other.protocol == adv.protocol && other.n == adv.n &&
        other.d == adv.d) {
      return static_cast<long>(c);
    }
  }
  return -1;
}

int trace_mode(const SweepSpec& spec, unsigned threads,
               const std::string& csv_path, const std::string& spans_path) {
  // The untraced reference: the shipped path, timed as in run mode.
  const Campaign untraced = run_campaign(spec, threads);
  write_file(csv_path, untraced.csv);

  const std::uint32_t root = Replay::next_span_id();
  const std::int64_t root_start = now_ns();
  std::vector<Span> engine_spans;
  const auto engine_span = [&engine_spans, root](const char* name,
                                                 std::int64_t start) {
    engine_spans.push_back(
        Span{name, Replay::next_span_id(), root, kNoJob, start, now_ns()});
    return seconds_between(start, engine_spans.back().end_ns);
  };

  std::int64_t t = now_ns();
  const SweepPlan plan(spec, ScenarioRegistry::extended());
  const double plan_s = engine_span("engine.plan", t);
  Replay replay(plan, expand_cells(plan));
  const double pool_s = replay.run(threads, root);
  t = now_ns();
  const SweepResult folded = plan.fold(replay.rows(), pool_s, threads);
  const double fold_s = engine_span("engine.fold", t);
  t = now_ns();
  std::ostringstream csv;
  folded.write_csv(csv);
  const double write_csv_s = engine_span("engine.write_csv", t);
  std::vector<Span>& spans = replay.spans();
  spans.insert(spans.end(), engine_spans.begin(), engine_spans.end());
  spans.push_back(Span{"bench.replay", root, 0, kNoJob, root_start, now_ns()});

  // Correctness: every replayed row against run_job's row, bit for bit.
  const std::uint64_t reps = plan.replications();
  std::uint64_t mismatched = 0;
  for (std::uint64_t job = 0; job < plan.job_count(); ++job) {
    if (!same_bits(replay.rows()[job],
                   untraced.result.samples()[job / reps][job % reps])) {
      ++mismatched;
    }
  }

  // Per-layer sums from the spans, and per-job warm-up seconds for the
  // adversary overhead against base cells.
  std::map<std::string, double> layer_s;
  std::map<std::uint32_t, double> child_s;  // job span id -> child seconds
  std::vector<double> job_s;
  std::vector<double> warmup_by_job(plan.job_count(), 0.0);
  for (const Span& s : spans) {
    const double d = seconds_between(s.start_ns, s.end_ns);
    layer_s[s.name] += d;
    child_s[s.parent] += d;
    if (std::strcmp(s.name, "engine.job") == 0) job_s.push_back(d);
    if (std::strcmp(s.name, "models.warmup") == 0) warmup_by_job[s.job] = d;
  }
  double unattributed_s = 0.0;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, "engine.job") == 0) {
      unattributed_s += seconds_between(s.start_ns, s.end_ns) - child_s[s.id];
    }
  }
  double jobs_total_s = 0.0;
  for (const double d : job_s) jobs_total_s += d;
  std::sort(job_s.begin(), job_s.end());

  const auto cell_warmup = [&](std::size_t cell) {
    double total = 0.0;
    for (std::uint64_t r = 0; r < reps; ++r) {
      total += warmup_by_job[cell * reps + r];
    }
    return total;
  };
  double adversary_overhead_s = 0.0;
  for (std::size_t c = 0; c < replay.cells().size(); ++c) {
    if (!replay.cells()[c].scenario.churn().adversarial()) continue;
    const long base = base_cell_of(replay.cells(), c);
    if (base >= 0) {
      adversary_overhead_s += cell_warmup(c) - cell_warmup(base);
    }
  }

  JobCounts total;
  double construct_rss_mb = 0.0;
  double rss_after_warmup_mb = 0.0;
  for (const JobCounts& c : replay.counts()) {
    construct_rss_mb = std::max(construct_rss_mb, c.construct_rss_mb);
    rss_after_warmup_mb = std::max(rss_after_warmup_mb, c.rss_after_warmup_mb);
    total.warmup_events += c.warmup_events;
    total.steps += c.steps;
    total.messages += c.messages;
    total.useful += c.useful;
    total.duplicate += c.duplicate;
  }
  double sets_probed = 0.0;
  const std::vector<std::string>& names = plan.metric_names();
  const auto probed = std::find(names.begin(), names.end(),
                                "expansion_sets_probed");
  if (probed != names.end()) {
    const std::size_t m = static_cast<std::size_t>(probed - names.begin());
    for (const std::vector<double>& row : replay.rows()) {
      if (!std::isnan(row[m])) sets_probed += row[m];
    }
  }

  double probe_s = 0.0;
  for (const ProbeRule& rule : kProbeRules) probe_s += layer_s[rule.span];
  const double flood_s = layer_s["protocols.flood"];
  const double gossip_s = layer_s["protocols.gossip"];
  // The traced campaign is the replay pool plus the plan, fold and CSV
  // around it, without the victim-selection probe (which run_job never
  // makes), so it spans what the untraced wall spans.
  const double traced_wall_s =
      plan_s + pool_s - probe_s / threads + fold_s + write_csv_s;
  const double deliveries = static_cast<double>(total.useful + total.duplicate);

  std::vector<std::pair<std::string, double>> metrics = {
      {"models.construct_s", layer_s["models.construct"]},
      {"models.construct_rss_mb", construct_rss_mb},
      {"models.warmup_s", layer_s["models.warmup"]},
      {"models.warmup_events", static_cast<double>(total.warmup_events)},
      {"models.warmup_ns_per_event",
       layer_s["models.warmup"] * 1e9 /
           std::max(1.0, static_cast<double>(total.warmup_events))},
      {"graph.snapshot_s", layer_s["graph.snapshot"]},
      {"graph.analyze_s", layer_s["graph.analyze"]},
      {"graph.rss_after_warmup_mb", rss_after_warmup_mb},
      {"churn.adversary_overhead_s", adversary_overhead_s},
      {"protocols.flood_s", flood_s},
      {"protocols.gossip_s", gossip_s},
      {"protocols.steps", static_cast<double>(total.steps)},
      {"protocols.messages", static_cast<double>(total.messages)},
      {"protocols.ns_per_message",
       (flood_s + gossip_s) * 1e9 /
           std::max(1.0, static_cast<double>(total.messages))},
      {"protocols.useful_frac",
       deliveries > 0.0 ? static_cast<double>(total.useful) / deliveries
                        : 0.0},
      {"observe.begin_s", layer_s["observe.begin"]},
      {"observe.observe_s", layer_s["observe.observe"]},
      {"observe.expansion_sets_probed", sets_probed},
      {"engine.plan_s", plan_s},
      {"engine.fold_s", fold_s},
      {"engine.write_csv_s", write_csv_s},
      {"engine.job_p50_s", quantile(job_s, 0.5)},
      {"engine.job_p90_s", quantile(job_s, 0.9)},
      {"engine.unattributed_s", unattributed_s},
      {"engine.pool_efficiency",
       jobs_total_s / (static_cast<double>(threads) * untraced.wall_s)},
      {"bench.trace_overhead_frac", traced_wall_s / untraced.wall_s - 1.0},
  };
  const double probe_calls =
      static_cast<double>(plan.job_count()) * kProbeCalls;
  for (const ProbeRule& rule : kProbeRules) {
    metrics.emplace_back(rule.metric, layer_s[rule.span] * 1e6 / probe_calls);
  }

  // Spans go out only now, after every measurement.
  {
    std::ofstream out(spans_path);
    for (const Span& s : spans) {
      out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"job\":";
      if (s.job == kNoJob) {
        out << "null";
      } else {
        out << s.job;
      }
      out << ",\"name\":\"" << s.name << "\",\"start_ns\":"
          << s.start_ns - root_start << ",\"end_ns\":" << s.end_ns - root_start
          << "}\n";
    }
    if (!out) die("cannot write '" + spans_path + "'");
  }

  std::ostringstream os;
  const PrecisionGuard precision(os);
  os << "{\"jobs\":" << plan.job_count() << ",\"rows_mismatched\":"
     << mismatched << ",\"csv_equal\":"
     << (csv.str() == untraced.csv ? "true" : "false")
     << ",\"untraced_wall_s\":" << untraced.wall_s
     << ",\"traced_wall_s\":" << traced_wall_s
     << ",\"jobs_total_s\":" << jobs_total_s << ",\"spans\":" << spans.size()
     << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ',';
    write_json_string(os, metrics[i].first);
    os << ':';
    write_json_number(os, metrics[i].second);
  }
  os << "},";
  print_build(os);
  os << "}\n";
  std::cout << os.str();
  return 0;
}

int run_mode(const SweepSpec& spec, unsigned threads, double seconds,
             const std::string& csv_path) {
  const std::uint64_t jobs = spec.cell_count() * spec.replications;
  std::vector<std::pair<double, double>> campaigns;  // wall, CPU seconds
  std::string first_csv;
  std::uint64_t mismatches = 0;
  double elapsed = 0.0;
  // Whole campaigns until the next one would overrun the budget.
  do {
    const Campaign campaign = run_campaign(spec, threads);
    elapsed += campaign.wall_s;
    if (campaigns.empty()) {
      first_csv = campaign.csv;
      write_file(csv_path, first_csv);
    } else if (campaign.csv != first_csv) {
      ++mismatches;
    }
    campaigns.emplace_back(campaign.wall_s, campaign.cpu_s);
  } while (elapsed + campaigns.back().first <= seconds);

  std::ostringstream os;
  const PrecisionGuard precision(os);
  os << "{\"jobs\":" << jobs << ",\"csv_mismatches\":" << mismatches
     << ",\"peak_rss_mb\":" << peak_rss_mb() << ",\"campaigns\":[";
  for (std::size_t i = 0; i < campaigns.size(); ++i) {
    if (i > 0) os << ',';
    os << "{\"wall_s\":" << campaigns[i].first
       << ",\"cpu_s\":" << campaigns[i].second << '}';
  }
  os << "],";
  print_build(os);
  os << "}\n";
  std::cout << os.str();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("campaign_bench: run one sweep workload through the campaign path "
          "and print its measurements as JSON (run by campaignbench/run.py)");
  cli.add_string("mode", "run", "setup | run | trace");
  cli.add_string("spec", "", "SweepSpec JSON file (churnet_sweep --config)");
  cli.add_int("threads", 1, "in-process pool width");
  cli.add_double("seconds", 10.0, "run mode: measuring budget");
  cli.add_string("csv", "", "write the (first) campaign's CSV here");
  cli.add_string("spans", "", "trace mode: write the spans here (NDJSON)");
  if (!cli.parse(argc, argv)) return 0;
  const std::string mode = cli.get_string("mode");
  const std::string spec_path = cli.get_string("spec");
  if (spec_path.empty()) die("--spec is required");

  if (mode == "setup") {
    // From process start to a resolved plan; run.py supplies the start.
    const SweepPlan plan(load_spec(spec_path), ScenarioRegistry::extended());
    const std::int64_t ready = now_ns();
    std::printf("{\"ready_ns\":%lld,\"jobs\":%llu}\n",
                static_cast<long long>(ready),
                static_cast<unsigned long long>(plan.job_count()));
    return 0;
  }
  if (!kReportableBuild) {
    die("refusing to measure: not an optimised NDEBUG build without "
        "sanitizers (configure with -DCMAKE_BUILD_TYPE=Release)");
  }
  const SweepSpec spec = load_spec(spec_path);
  const std::int64_t threads = cli.get_int("threads");
  if (threads < 1 || threads > 256) die("--threads must be in [1, 256]");
  const std::string csv_path = cli.get_string("csv");
  if (csv_path.empty()) die("--csv is required");
  if (mode == "run") {
    return run_mode(spec, static_cast<unsigned>(threads),
                    cli.get_double("seconds"), csv_path);
  }
  if (mode == "trace") {
    const std::string spans_path = cli.get_string("spans");
    if (spans_path.empty()) die("--spans is required");
    return trace_mode(spec, static_cast<unsigned>(threads), csv_path,
                      spans_path);
  }
  die("unknown --mode '" + mode + "' (setup | run | trace)");
}

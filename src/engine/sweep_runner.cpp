#include "engine/sweep_runner.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/assertx.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/sinks.hpp"
#include "graph/algorithms.hpp"
#include "observe/observer_spec.hpp"
#include "observe/pipeline.hpp"
#include "protocols/protocol_spec.hpp"
#include "telemetry/trace_sink.hpp"

namespace churnet {
namespace {

/// What a metric reads.
enum class MetricSource : std::uint8_t {
  kAlive,       // the live graph's alive count
  kDegrees,     // the live graph's degrees (degree_stats)
  kComponents,  // a snapshot's connected components
  kFlood,       // one run of the cell's protocol
};

struct MetricInfo {
  const char* name;
  SweepMetric id;
  MetricSource source;
};

constexpr MetricInfo kCatalog[] = {
    {"alive", SweepMetric::kAlive, MetricSource::kAlive},
    {"mean_degree", SweepMetric::kMeanDegree, MetricSource::kDegrees},
    {"max_degree", SweepMetric::kMaxDegree, MetricSource::kDegrees},
    {"isolated", SweepMetric::kIsolated, MetricSource::kDegrees},
    {"largest_component_frac", SweepMetric::kLargestComponentFrac,
     MetricSource::kComponents},
    {"completion_step", SweepMetric::kCompletionStep, MetricSource::kFlood},
    {"final_fraction", SweepMetric::kFinalFraction, MetricSource::kFlood},
    {"peak_informed", SweepMetric::kPeakInformed, MetricSource::kFlood},
    {"flood_steps", SweepMetric::kFloodSteps, MetricSource::kFlood},
    {"messages", SweepMetric::kMessages, MetricSource::kFlood},
    {"useful_deliveries", SweepMetric::kUsefulDeliveries,
     MetricSource::kFlood},
    {"duplicate_deliveries", SweepMetric::kDuplicateDeliveries,
     MetricSource::kFlood},
    {"lost_messages", SweepMetric::kLostMessages, MetricSource::kFlood},
};

/// What a worker thread keeps across the jobs it runs: the graph its
/// last job handed back, whose arrays stay sized for the largest cell the
/// worker has run, and the observer set and protocol instance with the
/// protocol's scratch. Destroyed, and the graph's pages unmapped, when the
/// thread exits.
struct WorkerState {
  DynamicGraph graph;
  ObserverSet observers;
  std::string observers_key;
  ProtocolScratch scratch;
  std::unique_ptr<DisseminationProtocol> protocol;
  std::string protocol_key;
};

WorkerState& worker_state() {
  thread_local WorkerState state;
  return state;
}

const MetricInfo* find_metric(std::string_view name) {
  for (const MetricInfo& info : kCatalog) {
    if (name == info.name) return &info;
  }
  return nullptr;
}

struct IntegerKey {
  const char* name;
  double lo;
  double hi;
};

constexpr double kU32Max = std::numeric_limits<std::uint32_t>::max();

// A sweep's result matrix (one sample row per job) is held in memory, so
// the job count is bounded well below what that matrix could allocate.
constexpr std::uint64_t kMaxJobs = std::uint64_t{1} << 24;

// The range of every integer key. Doubles hold integers exactly up to 2^53;
// larger seeds belong in the CLI flag, not a JSON config.
constexpr IntegerKey kIntegerKeys[] = {
    {"n", 1.0, kU32Max},
    {"d", 1.0, kU32Max},
    {"replications", 1.0, 1e15},
    {"seed", 0.0, 9007199254740992.0},
    {"max_in_degree", 0.0, kU32Max},
    {"intra_threads", 0.0, kU32Max},
};

/// Accepts only exact integers in the key's range; fractional,
/// out-of-range and non-numeric values are config errors, never silent
/// truncation (a static_cast from an out-of-range double is undefined
/// behavior).
bool read_integer(const JsonValue& value, const char* key, double* out,
                  std::string* error) {
  const double number =
      value.is_number() ? value.as_number()
                        : std::numeric_limits<double>::quiet_NaN();
  if (const auto reason = SweepSpec::check_integer(key, number)) {
    if (error != nullptr) *error = *reason;
    return false;
  }
  *out = number;
  return true;
}

bool read_u32_list(const JsonValue& value, const char* key,
                   std::vector<std::uint32_t>* out, std::string* error) {
  if (!value.is_array()) {
    if (error != nullptr) *error = std::string(key) + " must be an array";
    return false;
  }
  out->clear();
  for (const JsonValue& item : value.items()) {
    double number = 0.0;
    if (!read_integer(item, key, &number, error)) return false;
    out->push_back(static_cast<std::uint32_t>(number));
  }
  return true;
}

bool read_string_list(const JsonValue& value, const char* key,
                      std::vector<std::string>* out, std::string* error) {
  if (!value.is_array()) {
    if (error != nullptr) *error = std::string(key) + " must be an array";
    return false;
  }
  out->clear();
  for (const JsonValue& item : value.items()) {
    if (!item.is_string()) {
      if (error != nullptr) {
        *error = std::string(key) + " entries must be strings";
      }
      return false;
    }
    out->push_back(item.as_string());
  }
  return true;
}

/// Spec provenance for the sweep_begin trace event.
std::string sweep_spec_json(const SweepSpec& spec) {
  std::ostringstream os;
  const auto write_string_array = [&os](const char* key,
                                        const std::vector<std::string>& xs) {
    write_json_string(os, key);
    os << ":[";
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (i > 0) os << ',';
      write_json_string(os, xs[i]);
    }
    os << ']';
  };
  const auto write_u32_array = [&os](const char* key,
                                     const std::vector<std::uint32_t>& xs) {
    write_json_string(os, key);
    os << ":[";
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (i > 0) os << ',';
      os << xs[i];
    }
    os << ']';
  };
  os << '{';
  write_string_array("scenarios", spec.scenarios);
  os << ',';
  write_u32_array("n", spec.n_values);
  os << ',';
  write_u32_array("d", spec.d_values);
  os << ',';
  write_string_array("protocols", spec.protocols);
  os << ",\"observers\":";
  write_json_string(os, spec.observers);
  os << ",\"incremental_observers\":"
     << (spec.incremental_observers ? "true" : "false")
     << ",\"replications\":" << spec.replications
     << ",\"seed\":" << spec.base_seed
     << ",\"max_in_degree\":" << spec.max_in_degree
     << ",\"intra_threads\":" << spec.intra_threads << '}';
  return os.str();
}

}  // namespace

std::vector<std::string> SweepSpec::known_metrics() {
  std::vector<std::string> names;
  for (const MetricInfo& info : kCatalog) names.emplace_back(info.name);
  return names;
}

std::vector<std::string> SweepSpec::default_metrics() {
  return {"alive", "mean_degree", "isolated", "completion_step",
          "final_fraction", "messages"};
}

std::optional<std::string> SweepSpec::check_integer(std::string_view key,
                                                    double value) {
  for (const IntegerKey& known : kIntegerKeys) {
    if (key != known.name) continue;
    if (value >= known.lo && value <= known.hi &&
        std::floor(value) == value) {
      return std::nullopt;
    }
    return std::string(known.name) + " must be an integer in [" +
           std::to_string(static_cast<long long>(known.lo)) + ", " +
           std::to_string(static_cast<unsigned long long>(known.hi)) + "]";
  }
  CHURNET_EXPECTS(false && "check_integer: unknown integer key");
  return std::nullopt;
}

std::optional<SweepSpec> SweepSpec::from_json(const JsonValue& json,
                                              std::string* error) {
  if (!json.is_object()) {
    if (error != nullptr) *error = "sweep spec must be a JSON object";
    return std::nullopt;
  }
  SweepSpec spec;
  for (const JsonValue::Member& member : json.members()) {
    const std::string& key = member.first;
    const JsonValue& value = member.second;
    if (key == "scenarios") {
      if (!read_string_list(value, "scenarios", &spec.scenarios, error)) {
        return std::nullopt;
      }
    } else if (key == "n") {
      if (!read_u32_list(value, "n", &spec.n_values, error)) {
        return std::nullopt;
      }
    } else if (key == "d") {
      if (!read_u32_list(value, "d", &spec.d_values, error)) {
        return std::nullopt;
      }
    } else if (key == "protocols") {
      if (!read_string_list(value, "protocols", &spec.protocols, error)) {
        return std::nullopt;
      }
    } else if (key == "metrics") {
      if (!read_string_list(value, "metrics", &spec.metrics, error)) {
        return std::nullopt;
      }
    } else if (key == "observers") {
      if (!value.is_string()) {
        if (error != nullptr) {
          *error = "observers must be a spec string "
                   "(\"expansion(8)+isolated\")";
        }
        return std::nullopt;
      }
      spec.observers = value.as_string();
    } else if (key == "incremental_observers") {
      if (!value.is_bool()) {
        if (error != nullptr) {
          *error = "incremental_observers must be a boolean";
        }
        return std::nullopt;
      }
      spec.incremental_observers = value.as_bool();
    } else if (key == "replications") {
      double number = 0.0;
      if (!read_integer(value, "replications", &number, error)) {
        return std::nullopt;
      }
      spec.replications = static_cast<std::uint64_t>(number);
    } else if (key == "seed") {
      double number = 0.0;
      if (!read_integer(value, "seed", &number, error)) return std::nullopt;
      spec.base_seed = static_cast<std::uint64_t>(number);
    } else if (key == "max_in_degree") {
      double number = 0.0;
      if (!read_integer(value, "max_in_degree", &number, error)) {
        return std::nullopt;
      }
      spec.max_in_degree = static_cast<std::uint32_t>(number);
    } else if (key == "intra_threads") {
      double number = 0.0;
      if (!read_integer(value, "intra_threads", &number, error)) {
        return std::nullopt;
      }
      spec.intra_threads = static_cast<std::uint32_t>(number);
    } else {
      if (error != nullptr) {
        *error = "unknown sweep key '" + key +
                 "'; known: scenarios, n, d, protocols, metrics, observers, "
                 "incremental_observers, replications, seed, max_in_degree, "
                 "intra_threads";
      }
      return std::nullopt;
    }
  }
  if (const std::optional<std::string> reason = spec.validate()) {
    if (error != nullptr) *error = *reason;
    return std::nullopt;
  }
  return spec;
}

std::optional<SweepSpec> SweepSpec::from_json_text(std::string_view text,
                                                   std::string* error) {
  const std::optional<JsonValue> json = JsonValue::parse(text, error);
  if (!json.has_value()) return std::nullopt;
  return from_json(*json, error);
}

std::optional<std::string> SweepSpec::validate() const {
  if (scenarios.empty()) return "sweep needs at least one scenario";
  if (n_values.empty()) return "sweep needs at least one n";
  if (d_values.empty()) return "sweep needs at least one d";
  if (metrics.empty()) return "sweep needs at least one metric";
  if (replications == 0) return "replications must be >= 1";
  // Out-slot pool positions are 32-bit, and a cell reserves n*d of them.
  for (const std::uint32_t n : n_values) {
    for (const std::uint32_t d : d_values) {
      const std::uint64_t slots = std::uint64_t{n} * d;
      if (slots > NodeId::kInvalidSlot) {
        return "n*d must fit the 32-bit out-slot pool: n=" +
               std::to_string(n) + ", d=" + std::to_string(d) + " needs " +
               std::to_string(slots) + " out-slots, at most " +
               std::to_string(NodeId::kInvalidSlot);
      }
    }
  }
  if (replications > kMaxJobs / std::max<std::size_t>(cell_count(), 1)) {
    return "too many jobs: " + std::to_string(cell_count()) + " cell(s) x " +
           std::to_string(replications) +
           " replications; the result matrix holds at most " +
           std::to_string(kMaxJobs) + " jobs";
  }
  for (const std::string& protocol : protocols) {
    std::string error;
    if (!ProtocolSpec::parse(protocol, &error).has_value()) return error;
  }
  {
    std::string error;
    if (!ObserverSpec::parse(observers, &error).has_value()) return error;
  }
  for (const std::string& metric : metrics) {
    if (find_metric(metric) == nullptr) {
      std::string known;
      for (const MetricInfo& info : kCatalog) {
        known += known.empty() ? info.name : std::string(", ") + info.name;
      }
      return "unknown metric '" + metric + "'; known: " + known;
    }
  }
  return std::nullopt;
}

SweepResult::SweepResult(
    SweepSpec spec, std::vector<std::string> metric_names,
    std::vector<SweepCellKey> cells,
    std::vector<std::vector<std::vector<double>>> samples,
    double wall_seconds, unsigned threads_used)
    : spec_(std::move(spec)),
      metric_names_(std::move(metric_names)),
      cells_(std::move(cells)),
      samples_(std::move(samples)),
      wall_seconds_(wall_seconds),
      threads_used_(threads_used) {
  CHURNET_ASSERT(samples_.size() == cells_.size());
  stats_.resize(cells_.size());
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    stats_[c].resize(metric_names_.size());
    for (const std::vector<double>& row : samples_[c]) {
      CHURNET_ASSERT(row.size() == metric_names_.size());
      for (std::size_t m = 0; m < row.size(); ++m) {
        if (!std::isnan(row[m])) stats_[c][m].add(row[m]);
      }
    }
  }
}

const OnlineStats& SweepResult::stats(std::size_t cell,
                                      std::size_t metric) const {
  CHURNET_EXPECTS(cell < stats_.size());
  CHURNET_EXPECTS(metric < stats_[cell].size());
  return stats_[cell][metric];
}

Table SweepResult::to_table() const {
  std::vector<std::string> header{"scenario", "churn", "protocol", "n", "d"};
  for (const std::string& metric : metric_names_) header.push_back(metric);
  Table table(header);
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    const SweepCellKey& cell = cells_[c];
    std::vector<std::string> row{
        cell.scenario, cell.churn, cell.protocol,
        fmt_int(static_cast<std::int64_t>(cell.n)),
        fmt_int(static_cast<std::int64_t>(cell.d))};
    for (std::size_t m = 0; m < metric_names_.size(); ++m) {
      const OnlineStats& s = stats_[c][m];
      row.push_back(s.count() > 0 ? fmt_fixed(s.mean(), 3) : "-");
    }
    table.add_row(row);
  }
  return table;
}

void SweepResult::write_csv(std::ostream& os) const {
  const PrecisionGuard precision(os);
  os << "scenario,churn,protocol,n,d,replication,seed,metric,value\n";
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    const SweepCellKey& cell = cells_[c];
    // Scenario/churn names can contain commas ("bursty(4,0.5)"): RFC-4180
    // quoting keeps every row at exactly 9 columns.
    const std::string scenario_field = csv_field(cell.scenario);
    const std::string churn_field = csv_field(cell.churn);
    const std::string protocol_field = csv_field(cell.protocol);
    for (std::size_t r = 0; r < samples_[c].size(); ++r) {
      const std::uint64_t seed = derive_seed(spec_.base_seed, c, r);
      for (std::size_t m = 0; m < metric_names_.size(); ++m) {
        os << scenario_field << ',' << churn_field << ',' << protocol_field
           << ',' << cell.n << ',' << cell.d << ',' << r << ',' << seed
           << ',' << csv_field(metric_names_[m]) << ',';
        const double value = samples_[c][r][m];
        if (!std::isnan(value)) os << value;
        os << '\n';
      }
    }
  }
}

void SweepResult::write_json(std::ostream& os) const {
  // Deliberately no wall-clock or thread-count fields: the JSON sink, like
  // the CSV, is a pure function of (spec, samples), so runs at any thread
  // count — and resumed runs — emit identical bytes (the sweep
  // service's determinism contract, docs/sweep-service.md).
  const PrecisionGuard precision(os);
  os << "{\"replications\":" << spec_.replications
     << ",\"base_seed\":" << spec_.base_seed << ",\"cells\":[";
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    if (c > 0) os << ',';
    const SweepCellKey& cell = cells_[c];
    os << "{\"scenario\":";
    write_json_string(os, cell.scenario);
    os << ",\"churn\":";
    write_json_string(os, cell.churn);
    os << ",\"protocol\":";
    write_json_string(os, cell.protocol);
    os << ",\"n\":" << cell.n << ",\"d\":" << cell.d << ",\"metrics\":{";
    for (std::size_t m = 0; m < metric_names_.size(); ++m) {
      if (m > 0) os << ',';
      const OnlineStats& s = stats_[c][m];
      write_json_string(os, metric_names_[m]);
      os << ":{\"count\":" << s.count() << ",\"mean\":";
      write_json_number(os, s.count() > 0 ? s.mean() : std::nan(""));
      os << ",\"stddev\":";
      write_json_number(os, s.count() > 1 ? s.stddev() : std::nan(""));
      os << ",\"min\":";
      write_json_number(os, s.count() > 0 ? s.min() : std::nan(""));
      os << ",\"max\":";
      write_json_number(os, s.count() > 0 ? s.max() : std::nan(""));
      os << '}';
    }
    os << "},\"samples\":[";
    for (std::size_t r = 0; r < samples_[c].size(); ++r) {
      if (r > 0) os << ',';
      os << '[';
      for (std::size_t m = 0; m < samples_[c][r].size(); ++m) {
        if (m > 0) os << ',';
        write_json_number(os, samples_[c][r][m]);
      }
      os << ']';
    }
    os << "]}";
  }
  os << "]}";
}

namespace {

/// FNV-1a over `bytes`, continuing from `h` (seed with kFnvOffset).
constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a_mix(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

SweepPlan::SweepPlan(SweepSpec spec, const ScenarioRegistry& registry)
    : spec_(std::move(spec)) {
  if (const std::optional<std::string> reason = spec_.validate()) {
    std::fprintf(stderr, "invalid sweep spec: %s\n", reason->c_str());
    std::abort();
  }
  // Resolve every scenario once (aborts with the known names on typos),
  // then expand the grid scenario-major, protocol axis next: an empty
  // protocol list means one cell per scenario under the scenario's own
  // protocol; explicit entries override it.
  scenarios_.reserve(spec_.scenarios.size());
  for (const std::string& name : spec_.scenarios) {
    scenarios_.push_back(registry.resolve(name));
  }
  std::vector<std::optional<ProtocolSpec>> protocol_axis;
  if (spec_.protocols.empty()) {
    protocol_axis.push_back(std::nullopt);  // the scenario's own protocol
  } else {
    for (const std::string& text : spec_.protocols) {
      std::string error;
      const std::optional<ProtocolSpec> parsed =
          ProtocolSpec::parse(text, &error);
      if (!parsed.has_value()) {  // validate() already checked; belt and
        std::fprintf(stderr, "%s\n", error.c_str());  // braces for direct
        std::abort();                                 // callers
      }
      protocol_axis.push_back(parsed);
    }
  }
  cells_.reserve(spec_.cell_count());
  keys_.reserve(spec_.cell_count());
  for (std::size_t s = 0; s < scenarios_.size(); ++s) {
    const Scenario& scenario = scenarios_[s];
    for (const std::optional<ProtocolSpec>& axis : protocol_axis) {
      const ProtocolSpec protocol = axis.value_or(scenario.protocol());
      for (const std::uint32_t n : spec_.n_values) {
        for (const std::uint32_t d : spec_.d_values) {
          cells_.push_back(Cell{s, protocol, n, d});
          keys_.push_back(SweepCellKey{
              scenario.name(),
              scenario.has_churn() ? scenario.churn().canonical() : "none",
              protocol.canonical(), n, d});
        }
      }
    }
  }

  metric_ids_.reserve(spec_.metrics.size());
  for (const std::string& name : spec_.metrics) {
    const MetricInfo* info = find_metric(name);
    CHURNET_ASSERT(info != nullptr);  // validate() already checked
    metric_ids_.push_back(info->id);
    needs_degrees_ |= info->source == MetricSource::kDegrees;
    needs_components_ |= info->source == MetricSource::kComponents;
    needs_flood_ |= info->source == MetricSource::kFlood;
  }

  // The attached observer set: parsed once here; instantiated per worker
  // (thread_local, like protocol instances) and fully reset per trial, so
  // observer values stay pure functions of the replication seed. Its
  // metric columns follow the spec's own metrics in every row.
  observer_spec_ = [this] {
    std::string error;
    const std::optional<ObserverSpec> parsed =
        ObserverSpec::parse(spec_.observers, &error);
    if (!parsed.has_value()) {  // validate() already checked; belt and
      std::fprintf(stderr, "%s\n", error.c_str());  // braces for direct
      std::abort();                                 // callers
    }
    return *parsed;
  }();
  observer_key_ = observer_spec_.canonical();
  has_observers_ = !observer_spec_.empty();
  metric_names_ = spec_.metrics;
  for (std::string& name :
       make_observer_set(observer_spec_).metric_names()) {
    metric_names_.push_back(std::move(name));
  }

  spec_json_ = sweep_spec_json(spec_);

  // The fingerprint covers everything that determines job identity: the
  // spec provenance (grid, seeds, observers, knobs), the resolved metric
  // columns and cell keys, and the job count. Fields are separated by a
  // 0x1f byte so ("ab","c") never collides with ("a","bc"). The two keys
  // accepted with no effect are hashed at their defaults, so a resume may
  // toggle them, and a spec that leaves them alone keeps its fingerprint.
  SweepSpec identity = spec_;
  identity.incremental_observers = SweepSpec{}.incremental_observers;
  identity.intra_threads = SweepSpec{}.intra_threads;
  std::uint64_t h = fnv1a_mix(kFnvOffset, sweep_spec_json(identity));
  for (const std::string& name : metric_names_) {
    h = fnv1a_mix(h, "\x1f");
    h = fnv1a_mix(h, name);
  }
  for (const SweepCellKey& key : keys_) {
    h = fnv1a_mix(h, "\x1f");
    h = fnv1a_mix(h, key.scenario);
    h = fnv1a_mix(h, "\x1f");
    h = fnv1a_mix(h, key.churn);
    h = fnv1a_mix(h, "\x1f");
    h = fnv1a_mix(h, key.protocol);
    h = fnv1a_mix(h, "\x1f");
    h = fnv1a_mix(h, std::to_string(key.n));
    h = fnv1a_mix(h, "\x1f");
    h = fnv1a_mix(h, std::to_string(key.d));
  }
  h = fnv1a_mix(h, "\x1f");
  h = fnv1a_mix(h, std::to_string(job_count()));
  fingerprint_ = h;
}

std::size_t SweepPlan::worker_arena_bytes() {
  return worker_state().graph.arena_bytes();
}

std::size_t SweepPlan::worker_protocol_bytes() {
  return worker_state().scratch.buffer_bytes();
}

std::uint64_t SweepPlan::job_seed(std::uint64_t job) const {
  return derive_seed(spec_.base_seed, job_cell(job), job_replication(job));
}

std::vector<double> SweepPlan::run_job(std::uint64_t job) const {
  const std::uint64_t cell_index = job_cell(job);
  const std::uint64_t replication = job_replication(job);
  const Cell& cell = cells_[cell_index];
  const bool has_observers = has_observers_;

  // Telemetry slice for this job: thread-local snapshot-diff around
  // the body (reads the steady clock only — no RNG, no effect on any
  // computed value). Emitted to the installed sink, if any, at the
  // bottom of the function.
  telemetry::TraceSink* const sink = telemetry::TraceSink::global();
  const telemetry::TrialRecorder recorder;
  const auto job_start = std::chrono::steady_clock::now();

  ScenarioParams params;
  params.n = cell.n;
  params.d = cell.d;
  params.seed = derive_seed(spec_.base_seed, cell_index, replication);
  params.max_in_degree = spec_.max_in_degree;
  // The worker's graph comes back from its previous job with its arrays
  // still sized, and make_warmed clears it, so on a warm worker the build
  // reuses them and the job's value is unchanged.
  WorkerState& worker = worker_state();
  AnyNetwork net = scenarios_[cell.scenario].make_warmed(
      params, std::move(worker.graph));

  // Observer instances live per worker like protocol instances;
  // begin_trial resets them under a stream (params.seed, 2, ·)
  // disjoint from the network's own seed and the protocol stream
  // (params.seed, 1, 0). An observation window, when requested,
  // advances the network BEFORE any metric is measured — the window
  // is part of the cell's definition, identical at every thread
  // count — so observe_window runs before `alive` is read. The set's
  // one shared snapshot (built only when some observer wants one)
  // doubles as the component metric's snapshot; a local capture covers
  // the sets without a snapshot observer. Capture itself is RNG-free,
  // so sharing it changes no measured value.
  ObserverSet& observers = worker.observers;
  const Snapshot* snap = nullptr;
  if (has_observers) {
    if (observers.empty() || worker.observers_key != observer_key_) {
      observers = make_observer_set(observer_spec_);
      worker.observers_key = observer_key_;
    }
    snap = observe_window(net, observers, derive_seed(params.seed, 2, 0));
  }

  // The degree metrics read the live graph: degree_stats is exact in any
  // visiting order, so only the component metric needs a snapshot.
  const double alive =
      static_cast<double>(net.graph().alive_count());
  DegreeStats degrees;
  if (needs_degrees_) degrees = degree_stats(net.graph());
  Components components;
  if (needs_components_) {
    components = snap != nullptr ? connected_components(*snap)
                                 : connected_components(net.snapshot());
  }
  FloodTrace trace;
  ProtocolStats proto_stats;
  if (needs_flood_ ||
      (has_observers && observers.wants_dissemination())) {
    // The cell's protocol through the generic dissemination driver;
    // its RNG stream is derived from the replication seed, so the
    // job stays a pure function of (base_seed, cell, replication).
    // Protocol instances are reusable across runs (begin_run resets
    // everything), so each worker keeps one per canonical spec —
    // jobs are cell-contiguous, making rebuilds rare.
    const std::string& key = keys_[cell_index].protocol;
    if (worker.protocol == nullptr || worker.protocol_key != key) {
      worker.protocol = make_protocol(cell.protocol);
      worker.protocol_key = key;
    }
    const ProtocolOptions options = protocol_options(
        cell.protocol, derive_seed(params.seed, 1, 0));
    ProtocolResult run =
        net.disseminate(*worker.protocol, options, worker.scratch);
    if (has_observers) {
      observers.on_dissemination(run.trace, &run.stats);
    }
    trace = std::move(run.trace);
    proto_stats = run.stats;
  }
  // The next job of this cell reuses what this one grew; after the cell's
  // last job the next job runs another cell, which may need none of it.
  if (replication + 1 == spec_.replications) worker.scratch.release();
  worker.graph = net.release_graph();

  std::vector<double> values;
  values.reserve(metric_ids_.size());
  for (const SweepMetric id : metric_ids_) {
    switch (id) {
      case SweepMetric::kAlive:
        values.push_back(alive);
        break;
      case SweepMetric::kMeanDegree:
        values.push_back(degrees.mean);
        break;
      case SweepMetric::kMaxDegree:
        values.push_back(static_cast<double>(degrees.max));
        break;
      case SweepMetric::kIsolated:
        values.push_back(static_cast<double>(degrees.isolated));
        break;
      case SweepMetric::kLargestComponentFrac:
        values.push_back(
            alive > 0.0
                ? static_cast<double>(components.largest_size) / alive
                : std::nan(""));
        break;
      case SweepMetric::kCompletionStep:
        values.push_back(trace.completed
                             ? static_cast<double>(
                                   trace.completion_step)
                             : std::nan(""));
        break;
      case SweepMetric::kFinalFraction:
        values.push_back(trace.final_fraction);
        break;
      case SweepMetric::kPeakInformed:
        values.push_back(static_cast<double>(trace.peak_informed));
        break;
      case SweepMetric::kFloodSteps:
        values.push_back(static_cast<double>(trace.steps));
        break;
      case SweepMetric::kMessages:
        values.push_back(
            static_cast<double>(proto_stats.total_messages()));
        break;
      case SweepMetric::kUsefulDeliveries:
        values.push_back(
            static_cast<double>(proto_stats.useful_deliveries));
        break;
      case SweepMetric::kDuplicateDeliveries:
        values.push_back(
            static_cast<double>(proto_stats.duplicate_deliveries));
        break;
      case SweepMetric::kLostMessages:
        values.push_back(
            static_cast<double>(proto_stats.lost_messages));
        break;
    }
  }
  if (has_observers) observers.append_values(values);
  if (sink != nullptr) {
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() -
                            job_start)
                            .count();
    const SweepCellKey& key = keys_[cell_index];
    std::ostringstream identity;
    identity << "\"scenario\":";
    write_json_string(identity, key.scenario);
    identity << ",\"churn\":";
    write_json_string(identity, key.churn);
    identity << ",\"protocol\":";
    write_json_string(identity, key.protocol);
    identity << ",\"n\":" << key.n << ",\"d\":" << key.d;
    sink->job(cell_index, replication, params.seed, wall,
              recorder.finish(), identity.str());
  }
  return values;
}

SweepResult SweepPlan::fold(
    const std::vector<std::vector<double>>& flat_samples,
    double wall_seconds, unsigned threads_used) const {
  CHURNET_ASSERT(flat_samples.size() == job_count());
  // Regroup the flat job samples per cell (row j belongs to cell j / reps,
  // replication j % reps — reading by index, so the regrouping is
  // independent of the order rows were computed in).
  const std::uint64_t reps = spec_.replications;
  std::vector<std::vector<std::vector<double>>> samples(cells_.size());
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    samples[c].assign(
        flat_samples.begin() + static_cast<std::ptrdiff_t>(c * reps),
        flat_samples.begin() + static_cast<std::ptrdiff_t>((c + 1) * reps));
  }
  return SweepResult(spec_, metric_names_, keys_, std::move(samples),
                     wall_seconds, threads_used);
}

}  // namespace churnet

#include "telemetry/trace_sink.hpp"

#include <cinttypes>
#include <cstdio>
#include <ostream>

namespace churnet::telemetry {
namespace {

TraceSink* g_sink = nullptr;

void append_f(std::string& out, const char* fmt, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), fmt, value);
  out += buffer;
}

void append_u(std::string& out, std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%" PRIu64, value);
  out += buffer;
}

/// Minimal JSON string escaping for the event vocabulary (labels, spec
/// names); mirrors common/sinks.hpp rules.
void append_json_string(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

TraceSink::TraceSink(Options options)
    : options_(std::move(options)),
      start_(std::chrono::steady_clock::now()) {
  std::string line = "{\"ev\":\"trace_begin\",\"schema\":1,\"tool\":";
  append_json_string(line, options_.tool);
  line += ",\"ts_ms\":";
  append_u(line,
           static_cast<std::uint64_t>(
               std::chrono::duration_cast<std::chrono::milliseconds>(
                   std::chrono::system_clock::now().time_since_epoch())
                   .count()));
  line += '}';
  write_line(line);
}

TraceSink::~TraceSink() {
  std::string line = "{\"ev\":\"trace_end\",\"t_s\":";
  append_f(line, "%.3f", elapsed_seconds());
  line += '}';
  write_line(line);
}

TraceSink* TraceSink::global() { return g_sink; }
void TraceSink::install(TraceSink* sink) { g_sink = sink; }

double TraceSink::elapsed_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

void TraceSink::write_line(const std::string& line) {
  if (options_.out == nullptr) return;
  const std::lock_guard<std::mutex> lock(write_mutex_);
  *options_.out << line << '\n';
  options_.out->flush();  // streaming contract: lines land as they happen
}

void TraceSink::span_begin(std::string_view name) {
  std::string line = "{\"ev\":\"span_begin\",\"name\":";
  append_json_string(line, name);
  line += ",\"t_s\":";
  const double now_s = elapsed_seconds();
  append_f(line, "%.3f", now_s);
  line += '}';
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    open_spans_.push_back({std::string(name), now_s});
  }
  write_line(line);
}

void TraceSink::span_end(std::string_view name) {
  double began_s = 0.0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = open_spans_.size(); i-- > 0;) {
      if (open_spans_[i].name == name) {
        began_s = open_spans_[i].began_s;
        open_spans_.erase(open_spans_.begin() +
                          static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
  }
  std::string line = "{\"ev\":\"span_end\",\"name\":";
  append_json_string(line, name);
  line += ",\"t_s\":";
  const double now_s = elapsed_seconds();
  append_f(line, "%.3f", now_s);
  line += ",\"wall_s\":";
  append_f(line, "%.3f", now_s - began_s);
  line += '}';
  write_line(line);
}

void TraceSink::sweep_begin(std::string_view label, std::uint64_t cells,
                            std::uint64_t replications,
                            std::uint64_t jobs_total, unsigned threads,
                            std::string_view spec_json,
                            std::uint64_t resumed) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // A resumed campaign starts with `resumed` jobs already done; this
    // run's rate (and the ETA) is measured over the remaining jobs only.
    jobs_done_ = resumed;
    jobs_resumed_ = resumed;
    jobs_total_ = jobs_total;
    // sweep_end reports this sweep's jobs only, so a trace holding several
    // sweeps sums to its job events.
    aggregate_.clear();
    sweep_started_s_ = elapsed_seconds();
    next_heartbeat_s_ = sweep_started_s_ + options_.heartbeat_seconds;
  }
  std::string line = "{\"ev\":\"sweep_begin\",\"label\":";
  append_json_string(line, label);
  line += ",\"cells\":";
  append_u(line, cells);
  line += ",\"reps\":";
  append_u(line, replications);
  line += ",\"jobs\":";
  append_u(line, jobs_total);
  line += ",\"resumed\":";
  append_u(line, resumed);
  line += ",\"threads\":";
  append_u(line, threads);
  line += ",\"t_s\":";
  append_f(line, "%.3f", elapsed_seconds());
  line += ",\"spec\":";
  line += spec_json.empty() ? std::string_view("{}") : spec_json;
  line += '}';
  write_line(line);
}

void TraceSink::append_totals(std::string& out, const Totals& totals) {
  out += "\"phases\":{";
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    if (p > 0) out += ',';
    append_json_string(out, phase_name(static_cast<Phase>(p)));
    out += ":{\"s\":";
    append_f(out, "%.6f",
             static_cast<double>(totals.phase_ns[p]) * 1e-9);
    out += ",\"calls\":";
    append_u(out, totals.phase_calls[p]);
    out += '}';
  }
  out += "},\"counters\":{";
  for (std::size_t c = 0; c < kCounterCount; ++c) {
    if (c > 0) out += ',';
    append_json_string(out, counter_name(static_cast<Counter>(c)));
    out += ':';
    append_u(out, totals.counters[c]);
  }
  out += '}';
}

void TraceSink::job(std::uint64_t cell, std::uint64_t replication,
                    std::uint64_t seed, double wall_seconds,
                    const Totals& totals, std::string_view identity_json) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    aggregate_.merge(totals);
  }
  std::string line = "{\"ev\":\"job\",\"cell\":";
  append_u(line, cell);
  line += ",\"replication\":";
  append_u(line, replication);
  line += ",\"seed\":";
  append_u(line, seed);
  if (!identity_json.empty()) {
    line += ',';
    line += identity_json;
  }
  line += ",\"t_s\":";
  append_f(line, "%.3f", elapsed_seconds());
  line += ",\"wall_s\":";
  append_f(line, "%.6f", wall_seconds);
  line += ',';
  append_totals(line, totals);
  line += '}';
  write_line(line);
}

void TraceSink::sweep_end(std::string_view label, double wall_seconds) {
  Totals totals;
  std::uint64_t jobs = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    totals = aggregate_;
    jobs = jobs_done_;
  }
  std::string line = "{\"ev\":\"sweep_end\",\"label\":";
  append_json_string(line, label);
  line += ",\"jobs\":";
  append_u(line, jobs);
  line += ",\"wall_s\":";
  append_f(line, "%.3f", wall_seconds);
  line += ",\"t_s\":";
  append_f(line, "%.3f", elapsed_seconds());
  line += ',';
  append_totals(line, totals);
  line += '}';
  write_line(line);
}

void TraceSink::job_started() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++threads_busy_;
}

void TraceSink::job_finished() {
  bool due = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (threads_busy_ > 0) --threads_busy_;
    ++jobs_done_;
    const double now_s = elapsed_seconds();
    if (now_s >= next_heartbeat_s_ || jobs_done_ == jobs_total_) {
      next_heartbeat_s_ = now_s + options_.heartbeat_seconds;
      due = true;
    }
  }
  if (due) emit_heartbeat();
}

void TraceSink::emit_heartbeat() {
  std::uint64_t done = 0;
  std::uint64_t resumed = 0;
  std::uint64_t total = 0;
  std::uint64_t busy = 0;
  double eta_s = 0.0;
  double now_s = 0.0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    done = jobs_done_;
    resumed = jobs_resumed_;
    total = jobs_total_;
    busy = threads_busy_;
    now_s = elapsed_seconds();
    const double elapsed = now_s - sweep_started_s_;
    // Rate over jobs *this run* completed (done - resumed): journaled
    // jobs cost this run nothing, so folding them into the rate would
    // make a resumed campaign's ETA wildly optimistic.
    const std::uint64_t fresh = done - resumed;
    eta_s = (fresh > 0 && total > done)
                ? elapsed / static_cast<double>(fresh) *
                      static_cast<double>(total - done)
                : 0.0;
  }
  std::string line = "{\"ev\":\"heartbeat\",\"t_s\":";
  append_f(line, "%.3f", now_s);
  line += ",\"jobs_done\":";
  append_u(line, done);
  line += ",\"jobs_resumed\":";
  append_u(line, resumed);
  line += ",\"jobs_total\":";
  append_u(line, total);
  line += ",\"eta_s\":";
  append_f(line, "%.1f", eta_s);
  line += ",\"threads_busy\":";
  append_u(line, busy);
  line += '}';
  write_line(line);
  if (options_.progress) {
    if (resumed > 0) {
      std::fprintf(stderr,
                   "[%" PRIu64 "/%" PRIu64 "] (%" PRIu64
                   " resumed) eta %.0fs, %" PRIu64 " thread(s) busy\n",
                   done, total, resumed, eta_s, busy);
    } else {
      std::fprintf(stderr, "[%" PRIu64 "/%" PRIu64 "] eta %.0fs, %" PRIu64
                           " thread(s) busy\n",
                   done, total, eta_s, busy);
    }
  }
}

}  // namespace churnet::telemetry

#include "sweep/sweep.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <thread>

#include "common/logging.hpp"

namespace sdr::sweep {

// ---------------------------------------------------------------------------
// ParamValue / ParamPoint rendering
// ---------------------------------------------------------------------------

namespace {

std::string format_f64(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// CSV cells are quoted only when they would break the row structure.
std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string to_string(const ParamValue& value) {
  struct Visitor {
    std::string operator()(std::int64_t v) const {
      return std::to_string(v);
    }
    std::string operator()(double v) const { return format_f64(v); }
    std::string operator()(const std::string& v) const { return v; }
    std::string operator()(bool v) const { return v ? "true" : "false"; }
  };
  return std::visit(Visitor{}, value);
}

std::string to_json(const ParamValue& value) {
  if (const auto* s = std::get_if<std::string>(&value)) {
    return "\"" + json_escape(*s) + "\"";
  }
  return to_string(value);
}

std::string ParamPoint::to_string() const {
  std::string out;
  for (const auto& [key, val] : entries_) {
    if (!out.empty()) out += ' ';
    out += key;
    out += '=';
    out += sweep::to_string(val);
  }
  return out;
}

std::string ParamPoint::to_json() const {
  std::string out = "{";
  for (const auto& [key, val] : entries_) {
    if (out.size() > 1) out += ',';
    out += '"';
    out += json_escape(key);
    out += "\":";
    out += sweep::to_json(val);
  }
  out += '}';
  return out;
}

// ---------------------------------------------------------------------------
// Trial output
// ---------------------------------------------------------------------------

void Trial::emit(std::string line) {
  record_->lines.push_back(std::move(line));
}

void Trial::record(const std::string& key, double value) {
  const std::string s = format_f64(value);
  record_->values.push_back({key, s, s});
}

void Trial::record(const std::string& key, std::int64_t value) {
  const std::string s = std::to_string(value);
  record_->values.push_back({key, s, s});
}

void Trial::record(const std::string& key, const std::string& value) {
  record_->values.push_back(
      {key, "\"" + json_escape(value) + "\"", csv_escape(value)});
}

void Trial::record_flag(const std::string& key, bool value) {
  const std::string s = value ? "true" : "false";
  record_->values.push_back({key, s, s});
}

double TrialRecord::f64(const std::string& key, double fallback) const {
  const Value* v = find(key);
  if (v == nullptr) return fallback;
  return std::strtod(v->csv.c_str(), nullptr);
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Runs one trial (all attempts) into `out`. Lives in a struct so it can be
/// befriended by Trial without exposing engine internals in the header.
struct TrialRunner {
  /// Total attempts per trial (first run + one retry). A trial that throws
  /// on its last attempt is recorded as failed; an earlier failure is
  /// retried with identical params/seed.
  static constexpr int kMaxAttempts = 2;

  static void run(const ParamGrid& grid, const SweepOptions& options,
                  const TrialFn& fn, std::size_t index, TrialRecord& out) {
    std::string first_error;
    for (int attempt = 1; attempt <= kMaxAttempts; ++attempt) {
      TrialRecord rec;
      rec.index = index;
      rec.attempts = attempt;
      rec.first_error = first_error;
      ParamPoint point = grid.point(index);
      rec.params_str = point.to_string();
      rec.params_json = point.to_json();
      rec.param_cells.reserve(point.size());
      for (std::size_t i = 0; i < point.size(); ++i) {
        rec.param_cells.push_back(csv_escape(to_string(point.at(i).second)));
      }

      // Private telemetry in every slot, installed thread-locally for the
      // duration of the trial body. Even with capture off the installation
      // matters: a null slot would resolve to the process-wide default, so
      // concurrent trials would all write one unsynchronised recorder.
      telemetry::Registry registry;
      telemetry::SpanRecorder spans;
      telemetry::FlightRecorder flight;
      telemetry::Profiler profiler;
      std::unique_ptr<telemetry::Sampler> sampler;
      if (options.capture_telemetry) {
        registry.enable();
        sampler = std::make_unique<telemetry::Sampler>(
            registry, options.sample_period_s);
      }

      const auto begin = std::chrono::steady_clock::now();
      {
        telemetry::ScopedTelemetry scoped(&registry, &spans, &flight,
                                          &profiler);
        Trial trial(index, std::move(point),
                    derive_seed(options.base_seed, index), attempt, &rec,
                    &registry, sampler.get());
        try {
          fn(trial);
          rec.ok = true;
        } catch (const std::exception& e) {
          rec.error = e.what();
        } catch (...) {
          rec.error = "non-std::exception thrown";
        }
      }
      rec.wall_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - begin)
                       .count();
      if (rec.ok && options.capture_telemetry) {
        rec.metrics_jsonl = registry.to_jsonl();
        rec.timeseries_csv = sampler->to_csv();
      }
      if (!rec.ok) {
        if (first_error.empty()) first_error = rec.error;
        SDR_WARN("sweep trial %zu attempt %d/%d failed: %s", index, attempt,
                 kMaxAttempts, rec.error.c_str());
      }
      out = std::move(rec);
      if (out.ok) return;
    }
  }
};

SweepResult run_sweep(const ParamGrid& grid, const SweepOptions& options,
                      const TrialFn& fn) {
  SweepResult result;
  result.axis_names.reserve(grid.axes());
  for (std::size_t i = 0; i < grid.axes(); ++i) {
    result.axis_names.push_back(grid.axis_at(i).name);
  }
  const std::size_t n = grid.size();
  result.trials.resize(n);

  unsigned jobs = options.jobs;
  if (jobs == 0) {
    jobs = std::thread::hardware_concurrency();
    if (jobs == 0) jobs = 1;
  }
  if (n > 0 && jobs > n) jobs = static_cast<unsigned>(n);
  if (jobs == 0) jobs = 1;
  result.jobs = jobs;
  if (n == 0) return result;

  const auto begin = std::chrono::steady_clock::now();
  if (jobs == 1) {
    for (std::size_t i = 0; i < n; ++i) {
      TrialRunner::run(grid, options, fn, i, result.trials[i]);
    }
  } else {
    // Workers claim trial indices from a shared atomic cursor (best load
    // balance for uneven trials) and write only result.trials[i] for the
    // distinct indices they claim; the vector is pre-sized, so the cursor
    // is the only synchronization needed.
    std::atomic<std::size_t> cursor{0};
    auto worker = [&] {
      for (std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
           i < n; i = cursor.fetch_add(1, std::memory_order_relaxed)) {
        TrialRunner::run(grid, options, fn, i, result.trials[i]);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(jobs - 1);
    for (unsigned id = 1; id < jobs; ++id) pool.emplace_back(worker);
    worker();  // the calling thread is worker 0
    for (std::thread& t : pool) t.join();
  }
  result.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - begin)
                      .count();
  SDR_INFO("sweep: %zu trials, %u job(s), %zu failure(s), %.3f s wall", n,
           jobs, result.failures(), result.wall_s);
  return result;
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

std::string SweepResult::to_jsonl() const {
  std::string out;
  out.reserve(trials.size() * 128);
  for (const TrialRecord& t : trials) {
    out += "{\"trial\":";
    out += std::to_string(t.index);
    out += ",\"params\":";
    out += t.params_json.empty() ? "{}" : t.params_json;
    out += ",\"ok\":";
    out += t.ok ? "true" : "false";
    out += ",\"attempts\":";
    out += std::to_string(t.attempts);
    out += ",\"error\":";
    out += t.error.empty() ? "null" : "\"" + json_escape(t.error) + "\"";
    if (!t.first_error.empty()) {
      out += ",\"first_error\":\"" + json_escape(t.first_error) + "\"";
    }
    out += ",\"results\":{";
    for (std::size_t i = 0; i < t.values.size(); ++i) {
      if (i > 0) out += ',';
      out += '"';
      out += json_escape(t.values[i].key);
      out += "\":";
      out += t.values[i].json;
    }
    out += "},\"lines\":[";
    for (std::size_t i = 0; i < t.lines.size(); ++i) {
      if (i > 0) out += ',';
      out += '"';
      out += json_escape(t.lines[i]);
      out += '"';
    }
    out += "]}\n";
  }
  return out;
}

std::string SweepResult::to_csv() const {
  // Result columns: union of recorded keys, first seen first, scanning
  // trials in index order — deterministic because records are index-dense.
  std::vector<std::string> keys;
  for (const TrialRecord& t : trials) {
    for (const TrialRecord::Value& v : t.values) {
      bool seen = false;
      for (const std::string& k : keys) {
        if (k == v.key) {
          seen = true;
          break;
        }
      }
      if (!seen) keys.push_back(v.key);
    }
  }

  std::string out = "trial";
  for (const std::string& a : axis_names) {
    out += ',';
    out += csv_escape(a);
  }
  out += ",ok,attempts";
  for (const std::string& k : keys) {
    out += ',';
    out += csv_escape(k);
  }
  out += '\n';

  for (const TrialRecord& t : trials) {
    out += std::to_string(t.index);
    for (std::size_t i = 0; i < axis_names.size(); ++i) {
      out += ',';
      if (i < t.param_cells.size()) out += t.param_cells[i];
    }
    out += t.ok ? ",true," : ",false,";
    out += std::to_string(t.attempts);
    for (const std::string& k : keys) {
      out += ',';
      if (const TrialRecord::Value* v = t.find(k)) out += v->csv;
    }
    out += '\n';
  }
  return out;
}

namespace {

/// Inserts "trial":<i> as the first field of every JSON object line.
void append_labeled_jsonl(std::string& out, const std::string& body,
                          std::size_t trial) {
  const std::string label = "{\"trial\":" + std::to_string(trial) + ",";
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    if (eol > pos && body[pos] == '{') {
      out += label;
      out.append(body, pos + 1, eol - pos - 1);
      out += '\n';
    }
    pos = eol + 1;
  }
}

}  // namespace

std::string SweepResult::merged_metrics_jsonl() const {
  std::string out;
  for (const TrialRecord& t : trials) {
    append_labeled_jsonl(out, t.metrics_jsonl, t.index);
  }
  return out;
}

std::string SweepResult::merged_timeseries_csv() const {
  std::string out;
  for (const TrialRecord& t : trials) {
    if (t.timeseries_csv.empty()) continue;
    out += "# trial ";
    out += std::to_string(t.index);
    out += " (";
    out += t.params_str;
    out += ")\n";
    out += t.timeseries_csv;
  }
  return out;
}

}  // namespace sdr::sweep

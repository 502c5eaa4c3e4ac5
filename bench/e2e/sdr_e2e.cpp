// sdr_e2e — the end-to-end benchmark program. One mode per process, one JSON
// line on stdout (see e2e.hpp and bench/e2e/README.md):
//
//   sdr_e2e --workload=NAME --seed=S [--seconds=T]             untraced run
//   sdr_e2e --workload=NAME --seed=S [--seconds=T] --traced    profiled pass
//   sdr_e2e --probe=NAME|all [--window=SEC]                    layer probes
//
// Exit status: 0 when every output check passed, 1 when one failed (the
// JSON line then lists the failures), 2 on a usage error.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "e2e.hpp"
#include "ec/gf256_kernels.hpp"
#include "telemetry/profiler.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter (the same hook bench_fleet and bench_datapath
// use): every operator-new in the process bumps it.
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(a),
                                   (n + static_cast<std::size_t>(a) - 1) &
                                       ~(static_cast<std::size_t>(a) - 1))) {
    return p;
  }
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace sdr::e2e {

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void add_error(std::vector<std::string>& errors, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  errors.emplace_back(buf);
}

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
}

void JsonWriter::quote(std::string_view s) {
  out_ += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out_ += buf;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
}

JsonWriter& JsonWriter::key(std::string_view k) {
  separate();
  quote(k);
  out_ += ':';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  separate();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  separate();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  separate();
  quote(s);
  return *this;
}

JsonWriter& JsonWriter::begin_object() {
  separate();
  out_ += '{';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separate();
  out_ += '[';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  first_.pop_back();
  return *this;
}

namespace {

void write_unit(JsonWriter& j, const Unit& u) {
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(u.digest));
  j.begin_object();
  j.key("seed").value(u.seed);
  j.key("wall_s").value(u.wall_s);
  j.key("host_heap_s").value(u.host.heap_s);
  j.key("host_alu_s").value(u.host.alu_s);
  j.key("msgs").value(u.msgs);
  j.key("sim_goodput_gbps").value(u.sim_goodput_gbps);
  j.key("sim_p99_ms").value(u.sim_p99_ms);
  j.key("retransmissions").value(u.retransmissions);
  j.key("peak_concurrent").value(u.peak_concurrent);
  j.key("digest").value(digest);
  j.end_object();
}

void write_errors(JsonWriter& j, const std::vector<std::string>& errors) {
  j.key("errors").begin_array();
  for (const std::string& e : errors) j.value(e);
  j.end_array();
}

void write_workload(JsonWriter& j, const WorkloadRun& run) {
  j.key("posted").value(run.posted);
  j.key("completed").value(run.completed);
  j.key("failed").value(run.failed);
  j.key("allocs").value(run.allocs);
  j.key("setup_s").begin_array();
  for (const double s : run.setup_s) j.value(s);
  j.end_array();
  j.key("units").begin_array();
  for (const Unit& u : run.units) write_unit(j, u);
  j.end_array();
  write_errors(j, run.errors);
}

void write_traced(JsonWriter& j, const TracedResult& t) {
  write_workload(j, t.run);
  j.key("traced_wall_s").value(t.traced_wall_s);
  j.key("prof").begin_object();
  for (std::size_t c = 0; c < kProfCategories; ++c) {
    j.key(telemetry::to_string(static_cast<telemetry::ProfCategory>(c)))
        .begin_object();
    j.key("calls").value(t.prof[c].calls);
    j.key("self_ns").value(t.prof[c].self_ns);
    j.end_object();
  }
  j.end_object();
}

void write_probes(JsonWriter& j, const std::vector<ProbeResult>& probes,
                  const std::vector<std::string>& errors) {
  j.key("probes").begin_object();
  for (const ProbeResult& p : probes) {
    j.key(p.name).begin_object();
    j.key("unit").value(p.unit);
    j.key("windows").begin_array();
    for (const double v : p.windows) j.value(v);
    j.end_array();
    j.end_object();
  }
  j.end_object();
  write_errors(j, errors);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "sdr_e2e: %s\n"
               "usage: sdr_e2e --workload=NAME --seed=S [--seconds=T] "
               "[--traced]\n"
               "       sdr_e2e --probe=NAME|all [--window=SEC]\n",
               why);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_positive(const char* s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !(v > 0.0) || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace
}  // namespace sdr::e2e

int main(int argc, char** argv) {
  using namespace sdr::e2e;  // NOLINT
  std::string workload;
  std::string probe;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  double window_s = 0.2;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--workload=", 11) == 0) {
      workload = a + 11;
    } else if (std::strncmp(a, "--probe=", 8) == 0) {
      probe = a + 8;
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      if (!parse_u64(a + 7, &seed)) return usage("bad --seed");
    } else if (std::strncmp(a, "--seconds=", 10) == 0) {
      if (!parse_positive(a + 10, &seconds)) return usage("bad --seconds");
    } else if (std::strncmp(a, "--window=", 9) == 0) {
      if (!parse_positive(a + 9, &window_s)) return usage("bad --window");
    } else if (std::strcmp(a, "--traced") == 0) {
      traced = true;
    } else {
      return usage("unknown argument");
    }
  }
  if (workload.empty() == probe.empty()) {
    return usage("give exactly one of --workload and --probe");
  }
  if (!workload.empty() && !is_workload(workload)) {
    return usage("unknown workload");
  }
  if (!probe.empty() && probe != "all" && !is_probe(probe)) {
    return usage("unknown probe");
  }

  if (!start_host_speed()) {
    std::fprintf(stderr, "sdr_e2e: cannot start the host-speed helper\n");
    return 1;
  }
  JsonWriter j;
  j.begin_object();
  j.key("isa").value(sdr::ec::isa_name(sdr::ec::active_isa()));
  bool ok = false;
  if (!probe.empty()) {
    std::vector<std::string> errors;
    const std::vector<ProbeResult> probes = run_probes(probe, window_s, errors);
    j.key("mode").value("probe");
    write_probes(j, probes, errors);
    ok = errors.empty();
  } else if (traced) {
    const TracedResult t = run_traced(workload, seed, seconds);
    j.key("mode").value("traced");
    j.key("workload").value(workload);
    j.key("seed").value(seed);
    write_traced(j, t);
    ok = t.run.errors.empty();
  } else {
    const WorkloadRun run = run_workload(workload, seed, seconds);
    j.key("mode").value("workload");
    j.key("workload").value(workload);
    j.key("seed").value(seed);
    write_workload(j, run);
    ok = run.errors.empty();
  }
  // Peak resident set of this process, in KiB on Linux.
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  j.key("max_rss_kib").value(static_cast<std::uint64_t>(self.ru_maxrss));
  j.end_object();
  stop_host_speed();
  std::printf("%s\n", j.str().c_str());
  return ok ? 0 : 1;
}

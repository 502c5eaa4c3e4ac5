// sdrcheck — property-based conformance checker for the SDR stack.
//
// Modes:
//   sdrcheck --seeds=N [--base-seed=S] [--jobs=J]   batch fuzz run
//   sdrcheck --seed=S [--shrink-level=K]            replay one scenario
//            [--trace-perfetto=FILE]
//
// A batch run prints one line per failing seed plus the shrunk repro
// command; exit status is nonzero iff any oracle fired. A replay prints
// the scenario description and every arm's oracle verdicts. Failures
// additionally dump the per-connection flight-recorder rings (the last
// protocol state transitions of every arm) to sdrcheck_flight_<seed>.json
// and print the exact --trace-perfetto replay command that captures a
// causal span trace of the failing scenario.
//
// Determinism contract: seeds map to scenarios through common::Rng
// (xoshiro256**, golden-pinned), so `sdrcheck --seed=S --shrink-level=K`
// reproduces a CI failure bit-for-bit on any machine. See DESIGN.md
// §"Testing strategy".

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "check/check.hpp"

namespace {

using sdr::check::BatchResult;
using sdr::check::CheckOptions;
using sdr::check::SeedReport;

struct CliArgs {
  bool batch{false};
  std::size_t seeds{0};
  std::uint64_t base_seed{0x5EED5EED5EED5EEDULL};
  bool single{false};
  std::uint64_t seed{0};
  int shrink_level{0};
  unsigned jobs{1};
  const char* failing_seed_file{nullptr};
  const char* trace_perfetto{nullptr};
};

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 0);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --seeds=N [--base-seed=S] [--jobs=J] "
               "[--failing-seed-file=PATH]\n"
               "       %s --seed=S [--shrink-level=K] "
               "[--trace-perfetto=FILE]\n",
               argv0, argv0);
  return 2;
}

bool parse_args(int argc, char** argv, CliArgs* args) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    std::uint64_t v = 0;
    if (std::strncmp(a, "--seeds=", 8) == 0 && parse_u64(a + 8, &v)) {
      args->batch = true;
      args->seeds = static_cast<std::size_t>(v);
    } else if (std::strncmp(a, "--base-seed=", 12) == 0 &&
               parse_u64(a + 12, &v)) {
      args->base_seed = v;
    } else if (std::strncmp(a, "--seed=", 7) == 0 && parse_u64(a + 7, &v)) {
      args->single = true;
      args->seed = v;
    } else if (std::strncmp(a, "--shrink-level=", 15) == 0 &&
               parse_u64(a + 15, &v)) {
      args->shrink_level = static_cast<int>(v);
    } else if (std::strncmp(a, "--jobs=", 7) == 0 && parse_u64(a + 7, &v)) {
      args->jobs = static_cast<unsigned>(v);
    } else if (std::strncmp(a, "--failing-seed-file=", 20) == 0) {
      args->failing_seed_file = a + 20;
    } else if (std::strncmp(a, "--trace-perfetto=", 17) == 0) {
      args->trace_perfetto = a + 17;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a);
      return false;
    }
  }
  return args->batch != args->single;  // exactly one mode
}

void print_report(const SeedReport& report) {
  std::printf("seed=%llu shrink-level=%d\n",
              static_cast<unsigned long long>(report.seed),
              report.shrink_level);
  std::printf("scenario: %s\n", report.scenario.describe().c_str());
  for (const auto& arm : report.arms) {
    std::printf("  arm %-8s %s (%llu retransmissions)\n", arm.name.c_str(),
                arm.ok() ? "OK" : "FAIL",
                static_cast<unsigned long long>(arm.retransmissions));
  }
  if (!report.ok()) {
    std::printf("oracle failures:\n%s", report.failure_text().c_str());
  }
}

bool write_text_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  return true;
}

/// Failure postmortem: dump the flight-recorder rings next to the repro
/// line and print the span-trace replay command.
void print_postmortem(const SeedReport& report) {
  const std::string flight = report.flight_json();
  if (!flight.empty()) {
    const std::string path =
        "sdrcheck_flight_" + std::to_string(report.seed) + ".json";
    if (write_text_file(path, flight)) {
      std::printf("  flight recorder: %s\n", path.c_str());
    }
  }
  std::string replay =
      sdr::check::repro_command(report.seed, report.shrink_level);
  replay += " --trace-perfetto=sdrcheck_trace_" +
            std::to_string(report.seed) + ".json";
  std::printf("  span trace: `%s`\n", replay.c_str());
}

int run_single(const CliArgs& args) {
  CheckOptions opts;
  opts.capture_spans = args.trace_perfetto != nullptr;
  const SeedReport report =
      sdr::check::check_seed(args.seed, opts, args.shrink_level);
  print_report(report);
  if (args.trace_perfetto != nullptr) {
    const std::string chrome = report.chrome_json();
    if (!chrome.empty() && write_text_file(args.trace_perfetto, chrome)) {
      std::printf("wrote span trace to %s\n", args.trace_perfetto);
    }
  }
  if (report.ok()) {
    std::printf("PASS: all oracles hold\n");
    return 0;
  }
  std::printf("FAIL: repro with `%s`\n",
              sdr::check::repro_command(report.seed, report.shrink_level)
                  .c_str());
  print_postmortem(report);
  return 1;
}

int run_batch(const CliArgs& args) {
  const CheckOptions opts;
  const BatchResult batch =
      sdr::check::check_seeds(args.base_seed, args.seeds, opts, args.jobs);
  std::printf(
      "checked %zu seeds (base-seed=%llu, jobs=%u): %zu failing, "
      "digest %016llx\n",
      batch.total, static_cast<unsigned long long>(batch.base_seed),
      args.jobs, batch.failing_seeds.size(),
      static_cast<unsigned long long>(batch.digest()));
  for (const auto& shrunk : batch.shrunk) {
    std::printf("FAIL seed=%llu shrunk-to-level=%d: %s\n",
                static_cast<unsigned long long>(shrunk.minimal.seed),
                shrunk.level, shrunk.minimal.scenario.describe().c_str());
    std::printf("%s", shrunk.minimal.failure_text().c_str());
    std::printf("  repro: %s\n", shrunk.repro.c_str());
    print_postmortem(shrunk.minimal);
  }
  if (args.failing_seed_file != nullptr && !batch.ok()) {
    if (std::FILE* f = std::fopen(args.failing_seed_file, "w")) {
      for (const auto& shrunk : batch.shrunk) {
        std::fprintf(f, "%s\n", shrunk.repro.c_str());
      }
      std::fclose(f);
    } else {
      std::fprintf(stderr, "cannot write %s\n", args.failing_seed_file);
    }
  }
  return batch.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  if (!parse_args(argc, argv, &args)) return usage(argv[0]);
  return args.batch ? run_batch(args) : run_single(args);
}

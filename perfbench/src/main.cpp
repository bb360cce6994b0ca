// perf_bench — the repository benchmark program.
//
//   perf_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--out <dir>]
//
// Set-up (input generation from the seed plus one untimed warm-up
// operation) is timed from main; then whole rounds of operations run until
// `--seconds` have passed. Every operation's outputs are checked; a thrown
// exception or a failed check counts it as failed. The last line of
// standard output is one JSON object: correct, attempted, failed and the
// metrics — the end-to-end ones untraced, the per-layer ones with
// `--trace 1`, whose spans and per-layer table go to `--out`.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perf_bench: %s\nusage: perf_bench --workload "
               "<solve-large|classes-1m|paper-sweep|sim-replicate> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, &end);
      if (*end != '\0' || !(a.seconds > 0.0)) usage("bad --seconds");
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        usage("bad --trace");
      }
      a.trace = val[0] == '1';
    } else if (key == "--out") {
      a.out = val;
    } else {
      usage("unknown option");
    }
  }
  if (a.workload.empty()) usage("missing --workload");
  return a;
}

std::unique_ptr<Workload> make(const std::string& name) {
  if (name == "solve-large") return make_solve_large();
  if (name == "classes-1m") return make_classes_1m();
  if (name == "paper-sweep") return make_paper_sweep();
  if (name == "sim-replicate") return make_sim_replicate();
  usage("unknown workload");
}

void print_metric(bool& first, const char* name, double value,
                  const char* unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
              first ? "" : ", ", name, value, unit);
  first = false;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point t_start = Clock::now();
  const Args args = parse(argc, argv);
  std::unique_ptr<Workload> wl = make(args.workload);
  const std::size_t per_round = wl->ops_per_round();

  std::size_t attempted = 0;
  std::size_t failed = 0;
  const auto attempt = [&](const char* what, std::size_t k, auto&& body) {
    ++attempted;
    try {
      body();
    } catch (const std::exception& e) {
      ++failed;
      std::fprintf(stderr, "perf_bench: %s op %zu failed: %s\n", what, k,
                   e.what());
    }
  };

  wl->setup(args.seed);
  // Warm-up: one untimed operation (not counted), so caches and lazy
  // set-up are done before the timed phase.
  try {
    static_cast<void>(wl->run(0));
    wl->check(0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_bench: warm-up failed: %s\n", e.what());
  }
  const double setup_s = seconds_between(t_start, Clock::now());

  std::vector<double> op_wall;
  std::vector<double> traced_wall;
  double work = 0.0;
  double cpu = 0.0;
  Tracer tracer;
  LayerSamples samples;
  const Clock::time_point t_phase = Clock::now();
  std::uint64_t op_id = 0;
  do {
    for (std::size_t k = 0; k < per_round; ++k) {
      attempt("untraced", k, [&] {
        const double c0 = process_cpu_seconds();
        const Clock::time_point w0 = Clock::now();
        const double units = wl->run(k);
        const Clock::time_point w1 = Clock::now();
        const double c1 = process_cpu_seconds();
        wl->check(k);
        op_wall.push_back(seconds_between(w0, w1));
        cpu += c1 - c0;
        work += units;
      });
      if (args.trace) {
        attempt("traced", k, [&] {
          tracer.set_op(op_id++);
          const Clock::time_point w0 = Clock::now();
          wl->run_traced(k, tracer, samples);
          traced_wall.push_back(seconds_between(w0, Clock::now()));
        });
      }
    }
  } while (seconds_between(t_phase, Clock::now()) < args.seconds);

  std::fprintf(stderr,
               "perf_bench: %s seed=%llu: %zu ops attempted, %zu failed, "
               "setup %.3f s, median op %.6f s\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), attempted, failed,
               setup_s, median(op_wall));

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false", attempted, failed);
  bool first = true;
  if (!args.trace) {
    print_metric(first, "setup_s", setup_s, "s");
    print_metric(first, "op_s", median(op_wall), "s");
    print_metric(first, "work_per_cpu_s", cpu > 0.0 ? work / cpu : 0.0,
                 "units/CPU-s");
    print_metric(first, "peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    const double untraced = median(op_wall);
    const double traced = median(traced_wall);
    samples["trace.op_s"] = {traced};
    samples["trace.untraced_op_s"] = {untraced};
    samples["trace.overhead"] = {untraced > 0.0 ? traced / untraced - 1.0
                                                : 0.0};
    for (const LayerMetric& m : layer_metrics()) {
      const auto it = samples.find(m.name);
      print_metric(first, m.name,
                   it == samples.end() ? 0.0 : median(it->second), m.unit);
    }
    const std::string stem = args.out + "/" + args.workload + "-seed" +
                             std::to_string(args.seed);
    tracer.write_spans(stem + ".spans.jsonl");
    std::string header = "# per-layer table: " + args.workload + " seed " +
                         std::to_string(args.seed) + "\n";
    for (const LayerMetric& m : layer_metrics()) {
      const auto it = samples.find(m.name);
      if (it == samples.end()) continue;
      char line[160];
      std::snprintf(line, sizeof line, "# %-26s %16.9g %s\n", m.name,
                    median(it->second), m.unit);
      header += line;
    }
    tracer.write_table(stem + ".layers.txt", header);
  }
  std::printf("}}\n");
  return 0;
}

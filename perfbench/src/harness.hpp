// Shared pieces of the benchmark program: clocks, the seeded input RNG,
// the in-memory span tracer of traced runs, and the Workload interface
// each of the four workloads implements.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// User+system CPU seconds of the whole process (all threads).
[[nodiscard]] double process_cpu_seconds();

/// Peak resident set of the process, in MB.
[[nodiscard]] double peak_rss_mb();

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
[[nodiscard]] double median(std::vector<double> v);

/// SplitMix64: the benchmark's own input generator, so inputs depend only
/// on the seed and never on the library's RNG.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();

 private:
  std::uint64_t state_;
};

/// Computer speeds and user demands of a seeded heterogeneous system.
struct Rates {
  std::vector<double> mu;
  std::vector<double> phi;
};

/// `n` speeds log-uniform over [10, 100] and `m` demands log-uniform over
/// a range of 8x, scaled to the given utilization. Both are stratified
/// (one draw per equal-probability stratum, strata in seeded order), so
/// the instances of different seeds differ in detail but not in make-up.
[[nodiscard]] Rates heterogeneous_rates(std::uint64_t seed, std::size_t m,
                                        std::size_t n, double utilization);

/// Seed of stream `k` derived from the run's seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k);

/// A failed output check. Counted as a failed operation.
class CheckFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Throws CheckFailure with a formatted message unless `ok`.
void require(bool ok, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// In-memory span recorder of a traced run. Spans nest by a stack: a span
/// begun while another is open records it as parent. Every span carries
/// the operation id set by `set_op`. Kept in memory (bounded; overflow is
/// counted) and written out when the run ends.
class Tracer {
 public:
  struct Span {
    const char* name;  ///< static string
    double start;      ///< seconds since the tracer was created
    double end;
    std::int64_t parent;  ///< index of the parent span, -1 at top level
    std::uint64_t op;
  };

  Tracer();
  void set_op(std::uint64_t op) { op_ = op; }
  std::size_t begin(const char* name);
  void end(std::size_t id);

  /// Writes one JSON object per span.
  void write_spans(const std::string& path) const;
  /// Writes `header`, then total and self seconds per span name (self =
  /// duration minus the part covered by direct children).
  void write_table(const std::string& path, const std::string& header) const;

 private:
  struct Totals {
    double total = 0.0;
    double self = 0.0;
    std::size_t count = 0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const;

  static constexpr std::size_t kCapacity = 1u << 20;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
  std::uint64_t op_ = 0;
  std::size_t dropped_ = 0;
};

/// RAII span.
class SpanScope {
 public:
  SpanScope(Tracer& t, const char* name) : t_(t), id_(t.begin(name)) {}
  ~SpanScope() { t_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& t_;
  std::size_t id_;
};

/// Per-layer samples of a traced run: one value per traced operation
/// under each metric name; the run reports each name's median.
using LayerSamples = std::map<std::string, std::vector<double>>;

/// One benchmark workload. Operations are numbered 0..ops_per_round()-1;
/// a run attempts whole rounds of them.
class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual std::size_t ops_per_round() const = 0;
  /// Generates the inputs from the seed.
  virtual void setup(std::uint64_t seed) = 0;
  /// Runs operation k (the timed part) and returns its units of useful
  /// work. Throws on failure.
  virtual double run(std::size_t k) = 0;
  /// Checks the outputs of the last run(k) against the oracle and the
  /// properties the method must have; throws CheckFailure.
  virtual void check(std::size_t k) = 0;
  /// Operation k rebuilt from per-layer calls with spans around each
  /// layer; adds one sample per per-layer metric. Throws on failure or on
  /// a mismatch with the untraced run(k) that preceded it.
  virtual void run_traced(std::size_t k, Tracer& tracer,
                          LayerSamples& samples) = 0;
};

std::unique_ptr<Workload> make_solve_large();
std::unique_ptr<Workload> make_classes_1m();
std::unique_ptr<Workload> make_paper_sweep();
std::unique_ptr<Workload> make_sim_replicate();

/// Every per-layer metric name with its unit, in BENCHMARK.json order.
struct LayerMetric {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<LayerMetric>& layer_metrics();

}  // namespace perfbench

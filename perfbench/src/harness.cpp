#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <ctime>
#include <fstream>

namespace perfbench {

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

std::uint64_t InputRng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double InputRng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

namespace {

std::vector<double> stratified_log_uniform(InputRng& rng, std::size_t k,
                                           double lo, double hi) {
  std::vector<std::size_t> stratum(k);
  for (std::size_t i = 0; i < k; ++i) stratum[i] = i;
  for (std::size_t i = k; i > 1; --i) {
    std::swap(stratum[i - 1], stratum[rng.next() % i]);
  }
  std::vector<double> v(k);
  for (std::size_t i = 0; i < k; ++i) {
    const double u = (static_cast<double>(stratum[i]) + rng.uniform()) /
                     static_cast<double>(k);
    v[i] = lo * std::exp(u * std::log(hi / lo));
  }
  return v;
}

}  // namespace

Rates heterogeneous_rates(std::uint64_t seed, std::size_t m, std::size_t n,
                          double utilization) {
  InputRng rng(seed);
  Rates r{stratified_log_uniform(rng, n, 10.0, 100.0),
          stratified_log_uniform(rng, m, 1.0, 8.0)};
  double capacity = 0.0;
  for (double mu : r.mu) capacity += mu;
  double weight = 0.0;
  for (double phi : r.phi) weight += phi;
  for (double& phi : r.phi) phi *= utilization * capacity / weight;
  return r;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k) {
  InputRng rng(seed ^ (0xd1b54a32d192ed03ULL * (k + 1)));
  return rng.next();
}

void require(bool ok, const char* fmt, ...) {
  if (ok) return;
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  throw CheckFailure(buf);
}

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(4096); }

std::size_t Tracer::begin(const char* name) {
  if (spans_.size() >= kCapacity) {
    ++dropped_;
    return SIZE_MAX;
  }
  const std::int64_t parent =
      stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  spans_.push_back({name, seconds_between(origin_, Clock::now()), 0.0,
                    parent, op_});
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::end(std::size_t id) {
  if (id == SIZE_MAX) return;
  spans_[id].end = seconds_between(origin_, Clock::now());
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = out[spans_[i].name];
    const double d = spans_[i].end - spans_[i].start;
    t.total += d;
    t.self += d - child_time[i];
    ++t.count;
  }
  return out;
}

void Tracer::write_spans(const std::string& path) const {
  std::ofstream f(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                  "\"parent\":%lld,\"op\":%llu}\n",
                  i, s.name, s.start, s.end, static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.op));
    f << line;
  }
}

void Tracer::write_table(const std::string& path,
                         const std::string& header) const {
  std::ofstream f(path);
  f << header;
  char line[256];
  std::snprintf(line, sizeof line, "%-28s %10s %14s %14s\n", "span", "count",
                "total_s", "self_s");
  f << line;
  for (const auto& [name, t] : totals()) {
    std::snprintf(line, sizeof line, "%-28s %10zu %14.6f %14.6f\n",
                  name.c_str(), t.count, t.total, t.self);
    f << line;
  }
  if (dropped_ != 0) f << "dropped spans: " << dropped_ << "\n";
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> kMetrics{
      {"trace.op_s", "s"},
      {"trace.untraced_op_s", "s"},
      {"trace.overhead", "ratio"},
      {"core.rounds", "count"},
      {"core.avail_ns", "ns"},
      {"core.waterfill_ns", "ns"},
      {"core.commit_ns", "ns"},
      {"core.norm_ns", "ns"},
      {"core.rebuild_ns", "ns"},
      {"core.active_computers", "count"},
      {"core.certificate_s", "s"},
      {"classes.partition_s", "s"},
      {"classes.aggregate_s", "s"},
      {"classes.dynamics_s", "s"},
      {"classes.certify_s", "s"},
      {"classes.count", "count"},
      {"classes.rounds", "count"},
      {"schemes.nash_s", "s"},
      {"schemes.gos_s", "s"},
      {"schemes.ios_s", "s"},
      {"schemes.ps_s", "s"},
      {"schemes.evaluate_s", "s"},
      {"distributed.ring_s", "s"},
      {"distributed.ring_messages", "count"},
      {"simmodel.simulate_s", "s"},
      {"des.events_per_job", "events/job"},
      {"des.queue_ns", "ns"},
      {"stats.draw_ns", "ns"},
      {"des.facility_ns", "ns"},
      {"util.pool_busy_ratio", "ratio"},
  };
  return kMetrics;
}

}  // namespace perfbench

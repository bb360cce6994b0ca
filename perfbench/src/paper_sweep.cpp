// paper-sweep: the paper's Table 1 system (6x10, 5x20, 3x50, 2x100 jobs/s,
// ten users with the published fractions) swept over utilization 10..90 %
// (Figure 4), plus the Figure 6 skewness sweep (2 fast + 14 slow computers
// at 60 %). Each point runs NASH_P, NASH_0, GOS, IOS and PS,
// schemes::evaluate on each, and the distributed ring protocol. These are
// many tiny solves, so entry-point overhead, validation and allocation
// dominate, together with the schemes and distributed layers. The inputs
// are the paper's and do not depend on the seed.
#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "distributed/ring_protocol.hpp"
#include "harness.hpp"
#include "oracle.hpp"
#include "schemes/gos.hpp"
#include "schemes/ios.hpp"
#include "schemes/metrics.hpp"
#include "schemes/nash.hpp"
#include "schemes/ps.hpp"

namespace perfbench {
namespace {

using namespace nashlb;

// Stated bound on every NASH user's relative best-reply gain.
constexpr double kMaxRelGain = 1e-3;
// NASH_P, NASH_0 and the ring protocol stop at the same tolerance on
// different paths to the unique equilibrium: their per-user response
// times agree within this relative bound.
constexpr double kSameEquilibrium = 1e-2;
constexpr double kExact = 1e-9;

const std::vector<double> kFractions{0.3,  0.2,  0.1,  0.07, 0.07,
                                     0.06, 0.06, 0.06, 0.04, 0.04};

core::Instance make_instance(std::vector<double> mu, double utilization) {
  double capacity = 0.0;
  for (double v : mu) capacity += v;
  core::Instance inst;
  inst.mu = std::move(mu);
  for (double q : kFractions) inst.phi.push_back(q * utilization * capacity);
  return inst;
}

enum Scheme : std::size_t { kNashP, kNash0, kGos, kIos, kPs, kRing, kSchemes };
constexpr const char* kNames[kSchemes] = {"NASH_P", "NASH_0", "GOS",
                                          "IOS",    "PS",     "ring"};

struct Point {
  core::Instance inst;
  std::vector<core::StrategyProfile> profile;
  std::vector<schemes::Metrics> metrics;  // kNashP..kPs
  std::size_t ring_messages = 0;
};

class PaperSweep final : public Workload {
 public:
  std::size_t ops_per_round() const override { return 1; }

  void setup(std::uint64_t /*seed*/) override {
    std::vector<double> table1;
    for (auto [rate, count] : {std::pair{10.0, 6}, std::pair{20.0, 5},
                               std::pair{50.0, 3}, std::pair{100.0, 2}}) {
      table1.insert(table1.end(), static_cast<std::size_t>(count), rate);
    }
    for (int pct = 10; pct <= 90; pct += 10) {
      points_.push_back({make_instance(table1, pct / 100.0), {}, {}, 0});
    }
    for (double skew : {1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0,
                        18.0, 20.0}) {
      std::vector<double> mu(2, 10.0 * skew);
      mu.insert(mu.end(), 14, 10.0);
      points_.push_back({make_instance(mu, 0.6), {}, {}, 0});
    }
  }

  double run(std::size_t /*k*/) override {
    for (Point& p : points_) solve_point(p, nullptr, nullptr);
    return static_cast<double>(points_.size() * kSchemes);
  }

  void check(std::size_t /*k*/) override {
    for (std::size_t idx = 0; idx < points_.size(); ++idx) check_point(idx);
  }

  void run_traced(std::size_t k, Tracer& tracer,
                  LayerSamples& samples) override {
    SpanScope op(tracer, "paper-sweep.op");
    std::map<std::string, double> seconds;
    std::size_t messages = 0;
    for (Point& p : points_) {
      SpanScope point(tracer, "sweep.point");
      solve_point(p, &tracer, &seconds);
      messages += p.ring_messages;
    }
    for (const char* name :
         {"schemes.nash_s", "schemes.gos_s", "schemes.ios_s", "schemes.ps_s",
          "schemes.evaluate_s", "distributed.ring_s"}) {
      samples[name].push_back(seconds[name]);
    }
    samples["distributed.ring_messages"].push_back(
        static_cast<double>(messages));
    check(k);
  }

 private:
  /// Solves one point; with a tracer, wraps each layer call in a span and
  /// adds its wall time to `seconds` under the per-layer metric name.
  static void solve_point(Point& p, Tracer* tracer,
                          std::map<std::string, double>* seconds) {
    const auto call = [&](const char* metric, auto&& body) {
      if (tracer == nullptr) {
        body();
        return;
      }
      SpanScope span(*tracer, metric);
      const Clock::time_point t0 = Clock::now();
      body();
      (*seconds)[metric] += seconds_between(t0, Clock::now());
    };
    p.profile.assign(kSchemes, core::StrategyProfile(1, 1));
    p.metrics.assign(kRing, {});
    call("schemes.nash_s", [&] {
      p.profile[kNashP] =
          schemes::NashScheme(core::Initialization::Proportional).solve(p.inst);
      p.profile[kNash0] =
          schemes::NashScheme(core::Initialization::Zero).solve(p.inst);
    });
    call("schemes.gos_s", [&] {
      p.profile[kGos] = schemes::GlobalOptimalScheme().solve(p.inst);
    });
    call("schemes.ios_s", [&] {
      p.profile[kIos] = schemes::IndividualOptimalScheme().solve(p.inst);
    });
    call("schemes.ps_s", [&] {
      p.profile[kPs] = schemes::ProportionalScheme().solve(p.inst);
    });
    call("schemes.evaluate_s", [&] {
      for (std::size_t s = kNashP; s < kRing; ++s) {
        p.metrics[s] = schemes::evaluate(p.inst, p.profile[s]);
      }
    });
    call("distributed.ring_s", [&] {
      distributed::RingResult ring = distributed::run_ring_protocol(p.inst);
      if (!ring.converged) throw std::runtime_error("ring did not converge");
      p.ring_messages = ring.messages;
      p.profile[kRing] = std::move(ring.profile);
    });
  }

  void check_point(std::size_t idx) const {
    const Point& p = points_[idx];
    const core::Instance& inst = p.inst;
    const std::size_t m = inst.phi.size();
    const std::size_t n = inst.mu.size();
    double demand = 0.0;
    for (double phi : inst.phi) demand += phi;
    std::vector<std::vector<double>> lambda(kSchemes);
    std::vector<std::vector<double>> times(kSchemes,
                                           std::vector<double>(m, 0.0));
    std::vector<double> overall(kSchemes, 0.0);
    for (std::size_t s = 0; s < kSchemes; ++s) {
      const core::StrategyProfile& prof = p.profile[s];
      require(prof.num_users() == m && prof.num_computers() == n,
              "point %zu %s: wrong shape", idx, kNames[s]);
      std::vector<double> rows;
      for (std::size_t j = 0; j < m; ++j) {
        double sum = 0.0;
        for (double f : prof.row(j)) {
          require(f >= 0.0, "point %zu %s: negative fraction", idx, kNames[s]);
          rows.push_back(f);
          sum += f;
        }
        require(std::fabs(sum - 1.0) <= kExact,
                "point %zu %s user %zu: row sums to %.17g", idx, kNames[s], j,
                sum);
      }
      lambda[s] = oracle::loads(rows, inst.phi, n);
      double total = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        require(lambda[s][i] < inst.mu[i], "point %zu %s: computer %zu unstable",
                idx, kNames[s], i);
        total += lambda[s][i];
      }
      require(std::fabs(total - demand) <= kExact * demand,
              "point %zu %s: loads sum to %.17g, Phi %.17g", idx, kNames[s],
              total, demand);
      for (std::size_t j = 0; j < m; ++j) {
        times[s][j] = oracle::user_time(prof.row(j), inst.mu, lambda[s]);
      }
      overall[s] = oracle::overall_time(inst.mu, lambda[s]);
      if (s < kRing) {
        const double got = p.metrics[s].overall_response_time;
        require(std::fabs(got - overall[s]) <= kExact * overall[s],
                "point %zu %s: evaluate D = %.17g, oracle %.17g", idx,
                kNames[s], got, overall[s]);
      }
    }
    for (std::size_t s : {kNashP, kNash0, kRing}) {
      for (std::size_t j = 0; j < m; ++j) {
        const double gain = oracle::relative_gain(p.profile[s].row(j),
                                                  inst.phi[j], inst.mu,
                                                  lambda[s]);
        require(gain <= kMaxRelGain,
                "point %zu %s user %zu: relative gain %.3g > %.1g", idx,
                kNames[s], j, gain, kMaxRelGain);
      }
      const double diff = oracle::max_rel_diff(times[s], times[kNashP]);
      require(diff <= kSameEquilibrium,
              "point %zu: %s and NASH_P differ by %.3g in D_j", idx, kNames[s],
              diff);
    }
    const auto near_loads = [&](std::size_t s, const std::vector<double>& want) {
      for (std::size_t i = 0; i < n; ++i) {
        require(std::fabs(lambda[s][i] - want[i]) <= kExact * demand,
                "point %zu %s: load %zu = %.17g, oracle %.17g", idx, kNames[s],
                i, lambda[s][i], want[i]);
      }
    };
    near_loads(kGos, oracle::sqrt_waterfill(inst.mu, demand));
    near_loads(kIos, oracle::linear_waterfill(inst.mu, demand));
    near_loads(kPs, oracle::proportional(inst.mu, demand));
    for (std::size_t s = 0; s < kSchemes; ++s) {
      require(overall[kGos] <= overall[s] * (1.0 + 1e-12),
              "point %zu: %s (D = %.17g) beats GOS (D = %.17g)", idx, kNames[s],
              overall[s], overall[kGos]);
    }
    for (std::size_t s : {kIos, kPs}) {
      require(std::fabs(p.metrics[s].fairness - 1.0) <= kExact,
              "point %zu %s: fairness %.17g != 1", idx, kNames[s],
              p.metrics[s].fairness);
    }
  }

  std::vector<Point> points_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_sweep() {
  return std::make_unique<PaperSweep>();
}

}  // namespace perfbench

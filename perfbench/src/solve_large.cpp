// solve-large: per-user NASH_P round-robin solves of seeded heterogeneous
// instances (2048 users, 64 computers, utilization 0.6), each followed by
// the program's own max_best_reply_gain certificate. The core round does
// nearly all the work; the DES is never touched.
#include <cmath>
#include <span>
#include <vector>

#include "core/best_reply.hpp"
#include "core/cost.hpp"
#include "core/dynamics.hpp"
#include "core/equilibrium.hpp"
#include "core/load_state.hpp"
#include "harness.hpp"
#include "oracle.hpp"

namespace perfbench {
namespace {

using namespace nashlb;

constexpr std::size_t kUsers = 2048;
constexpr std::size_t kComputers = 64;
// Operations per round. Rounds to the tolerance vary by about 10 % from
// instance to instance, so a run covers many instances to keep the median
// steady from seed to seed.
constexpr std::size_t kInstances = 32;
constexpr double kUtilization = 0.6;
// Stopping tolerance on sum_j |D_j^(l) - D_j^(l-1)| (seconds): 29 to 39
// rounds on these instances.
constexpr double kTolerance = 2e-3;
// Stated bound on every user's relative best-reply gain at the returned
// profile, as the oracle measures it (about 2e-3 is seen at this tolerance).
constexpr double kMaxRelGain = 1e-2;

core::Instance make_instance(std::uint64_t seed) {
  Rates r = heterogeneous_rates(seed, kUsers, kComputers, kUtilization);
  return {std::move(r.mu), std::move(r.phi)};
}

core::DynamicsOptions options() {
  core::DynamicsOptions opt;
  opt.init = core::Initialization::Proportional;
  opt.order = core::UpdateOrder::RoundRobin;
  opt.tolerance = kTolerance;
  return opt;
}

class SolveLarge final : public Workload {
 public:
  std::size_t ops_per_round() const override { return kInstances; }

  void setup(std::uint64_t seed) override {
    for (std::size_t k = 0; k < kInstances; ++k) {
      inst_.push_back(make_instance(derive_seed(seed, k)));
    }
  }

  double run(std::size_t k) override {
    result_ = core::best_reply_dynamics(inst_[k], options());
    if (!result_.converged) throw std::runtime_error("NASH_P did not converge");
    certificate_ = core::max_best_reply_gain(inst_[k], result_.profile);
    return static_cast<double>(result_.iterations * kUsers);
  }

  void check(std::size_t k) override {
    const core::Instance& inst = inst_[k];
    const core::StrategyProfile& s = result_.profile;
    std::vector<double> rows(kUsers * kComputers);
    for (std::size_t j = 0; j < kUsers; ++j) {
      const std::span<const double> row = s.row(j);
      double sum = 0.0;
      for (std::size_t i = 0; i < kComputers; ++i) {
        require(row[i] >= 0.0, "user %zu: s[%zu] = %g < 0", j, i, row[i]);
        rows[j * kComputers + i] = row[i];
        sum += row[i];
      }
      require(std::fabs(sum - 1.0) <= 1e-9, "user %zu: row sums to %.17g", j,
              sum);
    }
    const std::vector<double> lambda =
        oracle::loads(rows, inst.phi, kComputers);
    double total = 0.0;
    double demand = 0.0;
    for (double phi : inst.phi) demand += phi;
    for (std::size_t i = 0; i < kComputers; ++i) {
      require(lambda[i] < inst.mu[i], "computer %zu unstable", i);
      total += lambda[i];
    }
    require(std::fabs(total - demand) <= 1e-9 * demand,
            "sum of loads %.17g != Phi %.17g", total, demand);
    double worst_abs = 0.0;
    for (std::size_t j = 0; j < kUsers; ++j) {
      const std::span<const double> row(&rows[j * kComputers], kComputers);
      const double d = oracle::user_time(row, inst.mu, lambda);
      const double gain = oracle::relative_gain(row, inst.phi[j], inst.mu,
                                                lambda);
      require(gain <= kMaxRelGain, "user %zu: relative gain %.3g > %.1g", j,
              gain, kMaxRelGain);
      worst_abs = std::max(worst_abs, gain * d);
    }
    // The program's certificate is the same quantity in seconds.
    require(std::fabs(certificate_ - worst_abs) <= 1e-9 + 1e-6 * worst_abs,
            "certificate %.17g s, oracle %.17g s", certificate_, worst_abs);
  }

  void run_traced(std::size_t k, Tracer& tracer,
                  LayerSamples& samples) override {
    const core::Instance& inst = inst_[k];
    const core::DynamicsOptions opt = options();
    SpanScope op(tracer, "solve-large.op");
    // The round-robin loop of core::best_reply_dynamics (NASH_P), rebuilt
    // from the public per-layer calls with one shared workspace.
    core::StrategyProfile s = core::StrategyProfile::proportional(inst);
    std::vector<double> last = core::user_response_times(inst, s);
    for (double& d : last) {
      if (!std::isfinite(d)) d = 0.0;
    }
    core::LoadState state(inst, s);
    core::BestReplyWorkspace ws;
    ws.resize(kComputers);
    double avail_s = 0.0;
    double fill_s = 0.0;
    double commit_s = 0.0;
    double norm_s = 0.0;
    double rebuild_s = 0.0;
    std::size_t active = 0;
    std::size_t rounds = 0;
    bool converged = false;
    {
      SpanScope dyn(tracer, "core.dynamics");
      for (std::size_t round = 1; round <= opt.max_iterations; ++round) {
        SpanScope round_span(tracer, "core.round");
        if (round > 1) {
          SpanScope rebuild(tracer, "core.rebuild");
          const Clock::time_point t0 = Clock::now();
          state.rebuild(s);
          rebuild_s += seconds_between(t0, Clock::now());
        }
        double norm = 0.0;
        for (std::size_t j = 0; j < kUsers; ++j) {
          const Clock::time_point t0 = Clock::now();
          state.available_rates(s, j, inst.phi[j], ws.avail);
          const Clock::time_point t1 = Clock::now();
          for (double a : ws.avail) {
            if (!(a > 0.0)) throw std::runtime_error("computer overloaded");
          }
          core::optimal_fractions_into(ws.avail, inst.phi[j], ws.reply,
                                       ws.waterfill);
          const Clock::time_point t2 = Clock::now();
          state.commit_row(s, j, ws.reply);
          const Clock::time_point t3 = Clock::now();
          const double d = state.user_response_time(s, j);
          const Clock::time_point t4 = Clock::now();
          avail_s += seconds_between(t0, t1);
          fill_s += seconds_between(t1, t2);
          commit_s += seconds_between(t2, t3);
          norm_s += seconds_between(t3, t4);
          for (double f : ws.reply) active += f > 0.0 ? 1 : 0;
          norm += 1.0 * std::fabs(d - last[j]);
          last[j] = d;
        }
        rounds = round;
        if (norm <= opt.tolerance) {
          converged = true;
          break;
        }
      }
    }
    require(converged, "rebuilt loop did not converge");
    double certificate = 0.0;
    {
      SpanScope cert(tracer, "core.certificate");
      const Clock::time_point t0 = Clock::now();
      certificate = core::max_best_reply_gain(inst, s);
      samples["core.certificate_s"].push_back(
          seconds_between(t0, Clock::now()));
    }
    require(rounds == result_.iterations && s == result_.profile &&
                certificate == certificate_,
            "rebuilt loop (%zu rounds) differs from best_reply_dynamics "
            "(%zu rounds)",
            rounds, result_.iterations);
    const double replies = static_cast<double>(rounds * kUsers);
    samples["core.rounds"].push_back(static_cast<double>(rounds));
    samples["core.avail_ns"].push_back(1e9 * avail_s / replies);
    samples["core.waterfill_ns"].push_back(1e9 * fill_s / replies);
    samples["core.commit_ns"].push_back(1e9 * commit_s / replies);
    samples["core.norm_ns"].push_back(1e9 * norm_s / replies);
    if (rounds > 1) {
      samples["core.rebuild_ns"].push_back(1e9 * rebuild_s /
                                           static_cast<double>(rounds - 1));
    }
    samples["core.active_computers"].push_back(static_cast<double>(active) /
                                               replies);
  }

 private:
  std::vector<core::Instance> inst_;
  core::DynamicsResult result_{core::StrategyProfile(1, 1), false, false, 0,
                               {}, {}};
  double certificate_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_solve_large() {
  return std::make_unique<SolveLarge>();
}

}  // namespace perfbench

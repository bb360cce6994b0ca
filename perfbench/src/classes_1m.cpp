// classes-1m: one 10^6-user instance (64 computers) solved in class mode:
// UserClassPartition::quantized, then best_reply_dynamics over the
// classes, then certify_eps_nash. The partition build dominates; the
// Newton class reply runs over about a thousand classes.
#include <cmath>
#include <span>
#include <vector>

#include "core/dynamics.hpp"
#include "core/user_classes.hpp"
#include "harness.hpp"
#include "oracle.hpp"

namespace perfbench {
namespace {

using namespace nashlb;

constexpr std::size_t kUsers = 1'000'000;
constexpr std::size_t kComputers = 64;
constexpr double kUtilization = 0.6;
// Relative bucket width of the partition: ln(8)/ln(1.002) ~ 1040 classes
// over the 8x demand range.
constexpr double kEpsPhi = 0.002;
constexpr double kTolerance = 1e-3;
// Members whose best-reply gain the oracle measures per operation.
constexpr std::size_t kSampledMembers = 256;

class Classes1m final : public Workload {
 public:
  std::size_t ops_per_round() const override { return 1; }

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    Rates r = heterogeneous_rates(derive_seed(seed, 0), kUsers, kComputers,
                                  kUtilization);
    inst_.mu = std::move(r.mu);
    inst_.phi = std::move(r.phi);
    demand_ = 0.0;
    for (double phi : inst_.phi) demand_ += phi;
  }

  double run(std::size_t /*k*/) override {
    part_ = std::make_unique<core::UserClassPartition>(
        core::UserClassPartition::quantized(inst_, kEpsPhi));
    result_ = core::best_reply_dynamics(inst_, options(*part_));
    if (!result_.converged) {
      throw std::runtime_error("class dynamics did not converge");
    }
    cert_ = core::certify_eps_nash(inst_, *part_, result_.profile);
    return static_cast<double>(kUsers);
  }

  void check(std::size_t /*k*/) override {
    const core::StrategyProfile& s = result_.profile;
    const std::size_t classes = part_->num_classes();
    require(s.num_users() == classes && classes > 1,
            "class profile has %zu rows for %zu classes", s.num_users(),
            classes);
    for (std::size_t c = 0; c < classes; ++c) {
      double sum = 0.0;
      for (double f : s.row(c)) {
        require(f >= 0.0, "class %zu: negative fraction", c);
        sum += f;
      }
      require(std::fabs(sum - 1.0) <= 1e-9, "class %zu: row sums to %.17g", c,
              sum);
    }
    // Loads summed over every user from its class's row.
    std::vector<double> lambda(kComputers, 0.0);
    for (std::size_t j = 0; j < kUsers; ++j) {
      const std::size_t c = part_->class_of(j);
      require(c < classes, "user %zu in class %zu of %zu", j, c, classes);
      const std::span<const double> row = s.row(c);
      for (std::size_t i = 0; i < kComputers; ++i) {
        lambda[i] += row[i] * inst_.phi[j];
      }
    }
    double total = 0.0;
    for (std::size_t i = 0; i < kComputers; ++i) {
      require(lambda[i] < inst_.mu[i], "computer %zu unstable", i);
      total += lambda[i];
    }
    require(std::fabs(total - demand_) <= 1e-9 * demand_,
            "sum of loads %.17g != Phi %.17g", total, demand_);
    const double bound = cert_.analytic_bound;
    require(std::isfinite(bound) && cert_.eps_nash <= bound,
            "certificate eps %.3g above its bound %.3g", cert_.eps_nash, bound);
    InputRng pick(derive_seed(seed_, ++checks_));
    for (std::size_t t = 0; t < kSampledMembers; ++t) {
      const std::size_t j = static_cast<std::size_t>(pick.next() % kUsers);
      const double gain = oracle::relative_gain(s.row(part_->class_of(j)),
                                                inst_.phi[j], inst_.mu, lambda);
      require(gain <= bound * (1.0 + 1e-9) + 1e-12,
              "member %zu: relative gain %.6g above the bound %.6g", j, gain,
              bound);
    }
  }

  void run_traced(std::size_t /*k*/, Tracer& tracer,
                  LayerSamples& samples) override {
    SpanScope op(tracer, "classes-1m.op");
    const auto timed = [&](const char* span, const char* metric, auto&& body) {
      SpanScope scope(tracer, span);
      const Clock::time_point t0 = Clock::now();
      body();
      samples[metric].push_back(seconds_between(t0, Clock::now()));
    };
    std::unique_ptr<core::UserClassPartition> part;
    core::DynamicsResult res{core::StrategyProfile(1, 1), false, false, 0, {},
                             {}};
    core::EpsNashCertificate cert;
    timed("classes.partition", "classes.partition_s", [&] {
      part = std::make_unique<core::UserClassPartition>(
          core::UserClassPartition::quantized(inst_, kEpsPhi));
    });
    timed("classes.aggregate", "classes.aggregate_s",
          [&] { static_cast<void>(part->aggregate_instance(inst_)); });
    timed("classes.dynamics", "classes.dynamics_s",
          [&] { res = core::best_reply_dynamics(inst_, options(*part)); });
    timed("classes.certify", "classes.certify_s",
          [&] { cert = core::certify_eps_nash(inst_, *part, res.profile); });
    require(res.converged && res.profile == result_.profile &&
                cert.eps_nash == cert_.eps_nash,
            "traced class solve differs from the untraced one");
    samples["classes.count"].push_back(
        static_cast<double>(part->num_classes()));
    samples["classes.rounds"].push_back(static_cast<double>(res.iterations));
  }

 private:
  static core::DynamicsOptions options(const core::UserClassPartition& part) {
    core::DynamicsOptions opt;
    opt.init = core::Initialization::Proportional;
    opt.tolerance = kTolerance;
    opt.classes = &part;
    return opt;
  }

  std::uint64_t seed_ = 0;
  std::uint64_t checks_ = 0;
  core::Instance inst_;
  double demand_ = 0.0;
  std::unique_ptr<core::UserClassPartition> part_;
  core::DynamicsResult result_{core::StrategyProfile(1, 1), false, false, 0,
                               {}, {}};
  core::EpsNashCertificate cert_;
};

}  // namespace

std::unique_ptr<Workload> make_classes_1m() {
  return std::make_unique<Classes1m>();
}

}  // namespace perfbench

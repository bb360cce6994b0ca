// sim-replicate: simmodel::replicate of a fixed profile on the Table 1
// system at utilization 0.6 (16 computers, 10 users), 16 replications on a
// fixed pool of at most 4 workers. The profile is the oracle's closed-form
// global optimum split evenly over the users, so the simulated input does
// not move when the solver changes. The event queue, RNG draws, facility
// and dispatch do nearly all the work; core does none. The seed selects
// the simulation's random streams.
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "des/event_queue.hpp"
#include "des/facility.hpp"
#include "des/simulator.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "oracle.hpp"
#include "simmodel/replication.hpp"
#include "simmodel/system_sim.hpp"
#include "stats/distributions.hpp"
#include "stats/moments.hpp"
#include "stats/rng.hpp"

namespace perfbench {
namespace {

using namespace nashlb;

constexpr std::size_t kReplications = 16;
constexpr std::size_t kMaxWorkers = 4;
constexpr double kHorizon = 500.0;
constexpr double kWarmup = 50.0;
// Statistical checks accept a simulated mean within this many standard
// errors (across replications) of the oracle's value: with 15 degrees of
// freedom a correct simulator falls outside with probability ~5e-8.
constexpr double kStdErrors = 10.0;

const std::vector<double> kFractions{0.3,  0.2,  0.1,  0.07, 0.07,
                                     0.06, 0.06, 0.06, 0.04, 0.04};

std::size_t workers() {
  const std::size_t hw = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
  return std::min(kMaxWorkers, hw);
}

/// Mean and standard error of `v`.
std::pair<double, double> mean_se(const std::vector<double>& v) {
  double mean = 0.0;
  for (double x : v) mean += x;
  mean /= static_cast<double>(v.size());
  double ss = 0.0;
  for (double x : v) ss += (x - mean) * (x - mean);
  const double var = ss / static_cast<double>(v.size() - 1);
  return {mean, std::sqrt(var / static_cast<double>(v.size()))};
}

class SimReplicate final : public Workload {
 public:
  std::size_t ops_per_round() const override { return 1; }

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    for (auto [rate, count] : {std::pair{10.0, 6}, std::pair{20.0, 5},
                               std::pair{50.0, 3}, std::pair{100.0, 2}}) {
      inst_.mu.insert(inst_.mu.end(), static_cast<std::size_t>(count), rate);
    }
    double capacity = 0.0;
    for (double mu : inst_.mu) capacity += mu;
    for (double q : kFractions) inst_.phi.push_back(q * 0.6 * capacity);
    double demand = 0.0;
    for (double phi : inst_.phi) demand += phi;
    lambda_ = oracle::sqrt_waterfill(inst_.mu, demand);
    std::vector<double> row(lambda_.size());
    for (std::size_t i = 0; i < row.size(); ++i) row[i] = lambda_[i] / demand;
    profile_ = core::StrategyProfile(inst_.phi.size(), inst_.mu.size());
    for (std::size_t j = 0; j < inst_.phi.size(); ++j) profile_.set_row(j, row);
    // Every user plays the same row, so each user's expected response time
    // is the overall M/M/1 value at the oracle's loads.
    expected_ = oracle::overall_time(inst_.mu, lambda_);
  }

  double run(std::size_t /*k*/) override {
    simmodel::ReplicationConfig cfg;
    cfg.base.horizon = kHorizon;
    cfg.base.warmup = kWarmup;
    cfg.base.seed = derive_seed(seed_, ++ops_);
    cfg.replications = kReplications;
    cfg.threads = workers();
    const Clock::time_point t0 = Clock::now();
    result_ = simmodel::replicate(inst_, profile_, cfg);
    wall_ = seconds_between(t0, Clock::now());
    last_seed_ = cfg.base.seed;
    double jobs = 0.0;
    for (const simmodel::SimRunResult& r : result_.runs) {
      jobs += static_cast<double>(r.jobs_completed);
    }
    return jobs;
  }

  void check(std::size_t /*k*/) override {
    const std::size_t m = inst_.phi.size();
    const std::size_t n = inst_.mu.size();
    require(result_.runs.size() == kReplications, "%zu replications",
            result_.runs.size());
    std::vector<double> overall;
    std::vector<std::vector<double>> user(m);
    std::vector<std::vector<double>> util(n);
    for (const simmodel::SimRunResult& r : result_.runs) {
      require(r.jobs_completed == r.jobs_generated && r.jobs_generated > 0,
              "%llu jobs completed of %llu generated",
              static_cast<unsigned long long>(r.jobs_completed),
              static_cast<unsigned long long>(r.jobs_generated));
      overall.push_back(r.overall_mean_response);
      for (std::size_t j = 0; j < m; ++j) {
        user[j].push_back(r.user_mean_response[j]);
      }
      for (std::size_t i = 0; i < n; ++i) {
        // Arrivals stop at the horizon and the system then drains, so the
        // expected busy fraction over [0, end] is rho_i * horizon / end.
        util[i].push_back(r.computer_utilization[i] -
                          lambda_[i] / inst_.mu[i] * kHorizon / r.end_time);
        // Little's law over the whole run (empty at both ends): the
        // time-average number in system times the run length equals the
        // summed sojourn times.
        const double area =
            (r.computer_mean_queue[i] + r.computer_utilization[i]) * r.end_time;
        const double sojourn = r.computer_sojourn[i].sum();
        require(std::fabs(area - sojourn) <= 1e-6 * sojourn,
                "computer %zu: L*T = %.17g, sum of sojourns %.17g", i, area,
                sojourn);
      }
    }
    const auto [mean, se] = mean_se(overall);
    require(std::fabs(mean - expected_) <= kStdErrors * se,
            "overall mean %.6g s, oracle %.6g s, standard error %.3g", mean,
            expected_, se);
    // The program's own interval must be the Student-t 95 % interval
    // (t = 2.1314495 at 15 degrees of freedom) around the same mean.
    require(std::fabs(result_.overall_response.mean - mean) <= 1e-12 * mean &&
                std::fabs(result_.overall_response.half_width -
                          2.131449545559323 * se) <= 1e-6 * se,
            "replication interval %.17g +- %.17g, expected %.17g +- %.17g",
            result_.overall_response.mean, result_.overall_response.half_width,
            mean, 2.131449545559323 * se);
    for (std::size_t j = 0; j < m; ++j) {
      const auto [um, use] = mean_se(user[j]);
      require(std::fabs(um - expected_) <= kStdErrors * use,
              "user %zu mean %.6g s, oracle %.6g s, standard error %.3g", j,
              um, expected_, use);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto [dev, dse] = mean_se(util[i]);
      require(std::fabs(dev) <= kStdErrors * dse + 1e-9,
              "computer %zu utilization off by %.3g (standard error %.3g)", i,
              dev, dse);
    }
  }

  void run_traced(std::size_t /*k*/, Tracer& tracer,
                  LayerSamples& samples) override {
    SpanScope op(tracer, "sim-replicate.op");
    double busy = 0.0;
    for (double w : result_.wall_seconds) busy += w;
    samples["util.pool_busy_ratio"].push_back(
        busy / (static_cast<double>(workers()) * wall_));

    // Each replication on one thread, as replicate runs it on a worker,
    // publishing the DES counters into a registry.
    std::uint64_t events = 0;
    std::uint64_t jobs = 0;
    for (std::size_t r = 0; r < kReplications; ++r) {
      simmodel::SimConfig cfg;
      cfg.horizon = kHorizon;
      cfg.warmup = kWarmup;
      cfg.seed = last_seed_;
      cfg.replication = r;
      obs::Registry registry;
      cfg.metrics = &registry;
      simmodel::SimRunResult run;
      {
        SpanScope span(tracer, "simmodel.simulate");
        const Clock::time_point t0 = Clock::now();
        run = simmodel::simulate(inst_, profile_, cfg);
        samples["simmodel.simulate_s"].push_back(
            seconds_between(t0, Clock::now()));
      }
      require(run.user_mean_response == result_.runs[r].user_mean_response,
              "replication %zu differs between the pool and one thread", r);
      events += registry.counter("des.events_executed").value();
      jobs += run.jobs_completed;
    }
    samples["des.events_per_job"].push_back(static_cast<double>(events) /
                                            static_cast<double>(jobs));

    const double pending = rebuilt_replication(tracer, samples);
    {
      SpanScope span(tracer, "des.queue");
      samples["des.queue_ns"].push_back(queue_ns(pending));
    }
    {
      SpanScope span(tracer, "stats.draw");
      samples["stats.draw_ns"].push_back(draw_ns());
    }
  }

 private:
  /// Replication 0 of the last batch rebuilt from des/stats calls, in the
  /// order simmodel::simulate makes them (its stream layout included), with
  /// every Facility::request timed. Checks the per-user means are bitwise
  /// those of the batch. Returns the mean number of pending events seen by
  /// arrivals.
  double rebuilt_replication(Tracer& tracer, LayerSamples& samples) {
    SpanScope span(tracer, "des.rebuilt_replication");
    const std::size_t m = inst_.phi.size();
    const std::size_t n = inst_.mu.size();
    const auto stream_id = [](std::uint64_t kind, std::size_t index) {
      return kind * 4096 + static_cast<std::uint64_t>(index);
    };
    des::Simulator sim;
    const stats::RngStreams streams(last_seed_);
    std::vector<std::unique_ptr<des::Facility>> computers;
    for (std::size_t i = 0; i < n; ++i) {
      computers.push_back(std::make_unique<des::Facility>(
          sim, "computer-" + std::to_string(i), 1, des::PreemptPolicy::None));
    }
    std::vector<stats::Xoshiro256> arrival_rng;
    std::vector<stats::Xoshiro256> dispatch_rng;
    std::vector<stats::Xoshiro256> service_rng;
    for (std::size_t j = 0; j < m; ++j) {
      arrival_rng.push_back(streams.stream(0, stream_id(0, j)));
      dispatch_rng.push_back(streams.stream(0, stream_id(1, j)));
    }
    for (std::size_t i = 0; i < n; ++i) {
      service_rng.push_back(streams.stream(0, stream_id(2, i)));
    }
    std::vector<stats::Exponential> interarrival;
    for (double phi : inst_.phi) interarrival.emplace_back(phi);
    std::vector<stats::Exponential> service;
    for (double mu : inst_.mu) service.emplace_back(mu);
    std::vector<stats::Discrete> dispatch;
    for (std::size_t j = 0; j < m; ++j) dispatch.emplace_back(profile_.row(j));
    std::vector<stats::RunningStats> user_stats(m);
    double request_s = 0.0;
    std::uint64_t requests = 0;
    double pending = 0.0;
    std::function<void(std::size_t)> spawn_next = [&](std::size_t user) {
      const double gap = interarrival[user].sample(arrival_rng[user]);
      if (sim.now() + gap > kHorizon) return;
      sim.schedule(gap, [&, user](des::SimTime t_arrival) {
        pending += static_cast<double>(sim.pending_events());
        const std::size_t target = dispatch[user].sample(dispatch_rng[user]);
        const double service_time =
            service[target].sample(service_rng[target]);
        const Clock::time_point t0 = Clock::now();
        computers[target]->request(
            service_time, [&, user, t_arrival](des::SimTime t_done) {
              if (t_arrival >= kWarmup) user_stats[user].add(t_done - t_arrival);
            });
        request_s += seconds_between(t0, Clock::now());
        ++requests;
        spawn_next(user);
      });
    };
    for (std::size_t j = 0; j < m; ++j) spawn_next(j);
    sim.run();
    for (std::size_t j = 0; j < m; ++j) {
      require(user_stats[j].mean() == result_.runs[0].user_mean_response[j],
              "rebuilt replication differs for user %zu", j);
    }
    samples["des.facility_ns"].push_back(1e9 * request_s /
                                         static_cast<double>(requests));
    return pending / static_cast<double>(requests);
  }

  /// ns per EventQueue push+pop pair with `pending` events in the queue.
  double queue_ns(double pending) {
    des::EventQueue queue;
    stats::Xoshiro256 rng(last_seed_);
    const stats::Exponential gap(static_cast<double>(inst_.phi.size()));
    double now = 0.0;
    const auto count = static_cast<std::size_t>(std::max(1.0, std::round(pending)));
    for (std::size_t e = 0; e < count; ++e) {
      queue.push(now + gap.sample(rng), [](des::SimTime) {});
    }
    constexpr std::size_t kPairs = 1u << 20;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t e = 0; e < kPairs; ++e) {
      now = queue.pop()->time;
      queue.push(now + gap.sample(rng), [](des::SimTime) {});
    }
    const double s = seconds_between(t0, Clock::now());
    require(queue.size() == count, "queue size %zu after the pairs",
            queue.size());
    return 1e9 * s / static_cast<double>(kPairs);
  }

  /// ns per draw of the simulation's Exponential and Discrete samplers.
  double draw_ns() {
    stats::Xoshiro256 rng(last_seed_);
    const stats::Exponential exp(inst_.mu.back());
    const stats::Discrete disc(profile_.row(0));
    constexpr std::size_t kDraws = 1u << 20;
    double sum = 0.0;
    std::size_t picks = 0;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t d = 0; d < kDraws; ++d) {
      sum += exp.sample(rng);
      picks += disc.sample(rng);
    }
    const double s = seconds_between(t0, Clock::now());
    require(std::isfinite(sum) && picks < kDraws * inst_.mu.size(),
            "draws out of range");
    return 1e9 * s / static_cast<double>(2 * kDraws);
  }

  std::uint64_t seed_ = 0;
  std::uint64_t ops_ = 0;
  std::uint64_t last_seed_ = 0;
  core::Instance inst_;
  std::vector<double> lambda_;
  core::StrategyProfile profile_{1, 1};
  double expected_ = 0.0;
  simmodel::ReplicatedResult result_;
  double wall_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_sim_replicate() {
  return std::make_unique<SimReplicate>();
}

}  // namespace perfbench

#include "oracle.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace perfbench::oracle {
namespace {

/// Indices of `c` by decreasing capacity.
std::vector<std::size_t> by_decreasing(std::span<const double> c) {
  std::vector<std::size_t> idx(c.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::sort(idx.begin(), idx.end(),
            [&](std::size_t a, std::size_t b) { return c[a] > c[b]; });
  return idx;
}

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

}  // namespace

std::vector<double> sqrt_waterfill(std::span<const double> c, double demand) {
  require(!c.empty() && demand >= 0.0, "sqrt_waterfill: bad input");
  const std::vector<std::size_t> idx = by_decreasing(c);
  double sum_c = 0.0;
  double sum_root = 0.0;
  for (double v : c) {
    require(v > 0.0, "sqrt_waterfill: capacity <= 0");
    sum_c += v;
    sum_root += std::sqrt(v);
  }
  require(demand < sum_c, "sqrt_waterfill: demand >= capacity");
  // Shrink the support from the slowest end until every kept computer
  // gets a positive share: c_i - sqrt(c_i) t > 0  <=>  sqrt(c_i) > t.
  std::size_t cut = c.size();
  double t = (sum_c - demand) / sum_root;
  while (cut > 1 && std::sqrt(c[idx[cut - 1]]) <= t) {
    --cut;
    sum_c -= c[idx[cut]];
    sum_root -= std::sqrt(c[idx[cut]]);
    t = (sum_c - demand) / sum_root;
  }
  std::vector<double> lambda(c.size(), 0.0);
  for (std::size_t k = 0; k < cut; ++k) {
    const double ci = c[idx[k]];
    lambda[idx[k]] = ci - std::sqrt(ci) * t;
  }
  return lambda;
}

std::vector<double> linear_waterfill(std::span<const double> c,
                                     double demand) {
  require(!c.empty() && demand >= 0.0, "linear_waterfill: bad input");
  const std::vector<std::size_t> idx = by_decreasing(c);
  double sum_c = 0.0;
  for (double v : c) {
    require(v > 0.0, "linear_waterfill: capacity <= 0");
    sum_c += v;
  }
  require(demand < sum_c, "linear_waterfill: demand >= capacity");
  std::size_t cut = c.size();
  double t = (sum_c - demand) / static_cast<double>(cut);
  while (cut > 1 && c[idx[cut - 1]] <= t) {
    --cut;
    sum_c -= c[idx[cut]];
    t = (sum_c - demand) / static_cast<double>(cut);
  }
  std::vector<double> lambda(c.size(), 0.0);
  for (std::size_t k = 0; k < cut; ++k) lambda[idx[k]] = c[idx[k]] - t;
  return lambda;
}

std::vector<double> proportional(std::span<const double> mu, double demand) {
  const double total = std::accumulate(mu.begin(), mu.end(), 0.0);
  std::vector<double> lambda(mu.size());
  for (std::size_t i = 0; i < mu.size(); ++i) {
    lambda[i] = demand * mu[i] / total;
  }
  return lambda;
}

std::vector<double> best_reply(std::span<const double> avail, double phi) {
  require(phi > 0.0, "best_reply: phi <= 0");
  std::vector<double> s = sqrt_waterfill(avail, phi);
  for (double& v : s) v /= phi;
  return s;
}

std::vector<double> loads(std::span<const double> rows,
                          std::span<const double> phi, std::size_t n) {
  require(rows.size() == phi.size() * n, "loads: shape mismatch");
  std::vector<double> lambda(n, 0.0);
  for (std::size_t j = 0; j < phi.size(); ++j) {
    for (std::size_t i = 0; i < n; ++i) lambda[i] += rows[j * n + i] * phi[j];
  }
  return lambda;
}

double user_time(std::span<const double> row, std::span<const double> mu,
                 std::span<const double> lambda) {
  double d = 0.0;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (row[i] > 0.0) d += row[i] / (mu[i] - lambda[i]);
  }
  return d;
}

double overall_time(std::span<const double> mu,
                    std::span<const double> lambda) {
  double total = 0.0;
  double weighted = 0.0;
  for (std::size_t i = 0; i < mu.size(); ++i) {
    total += lambda[i];
    weighted += lambda[i] / (mu[i] - lambda[i]);
  }
  return weighted / total;
}

double relative_gain(std::span<const double> row, double phi,
                     std::span<const double> mu,
                     std::span<const double> lambda) {
  const std::size_t n = mu.size();
  std::vector<double> avail(n);
  for (std::size_t i = 0; i < n; ++i) {
    avail[i] = mu[i] - lambda[i] + row[i] * phi;
  }
  const double current = user_time(row, mu, lambda);
  const std::vector<double> best = best_reply(avail, phi);
  double best_time = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (best[i] > 0.0) best_time += best[i] / (avail[i] - best[i] * phi);
  }
  return (current - best_time) / current;
}

double max_rel_diff(std::span<const double> a, std::span<const double> b,
                    double floor) {
  require(a.size() == b.size(), "max_rel_diff: size mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst,
                     std::fabs(a[i] - b[i]) / std::max(std::fabs(b[i]), floor));
  }
  return worst;
}

}  // namespace perfbench::oracle

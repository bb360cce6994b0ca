// Tests of the benchmark oracle on hand-worked cases. Exits 1 on the
// first failed expectation; perfbench/run.py runs it before every
// workload, so a broken oracle never certifies anything.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "oracle.hpp"

namespace {

int failures = 0;

void expect_near(double got, double want, const char* what) {
  if (!(std::fabs(got - want) <= 1e-12 * std::max(1.0, std::fabs(want)))) {
    std::fprintf(stderr, "oracle_test: %s: got %.17g, want %.17g\n", what,
                 got, want);
    ++failures;
  }
}

void expect_vec(const std::vector<double>& got,
                const std::vector<double>& want, const char* what) {
  if (got.size() != want.size()) {
    std::fprintf(stderr, "oracle_test: %s: size %zu, want %zu\n", what,
                 got.size(), want.size());
    ++failures;
    return;
  }
  for (std::size_t i = 0; i < got.size(); ++i) expect_near(got[i], want[i], what);
}

}  // namespace

int main() {
  using namespace perfbench::oracle;

  // n = 1: a single computer (mu = 5) takes the whole demand 3.
  {
    const std::vector<double> mu{5.0};
    expect_vec(best_reply(mu, 3.0), {1.0}, "n=1 best reply");
    expect_vec(sqrt_waterfill(mu, 3.0), {3.0}, "n=1 optimum");
    expect_vec(linear_waterfill(mu, 3.0), {3.0}, "n=1 wardrop");
    expect_near(user_time(std::vector<double>{1.0}, mu,
                          std::vector<double>{3.0}),
                0.5, "n=1 D = 1/(5-3)");
  }

  // Two identical computers (mu = 4, 4), demand 2: every rule splits
  // evenly; t = (8-2)/(2+2) = 1.5, lambda_i = 4 - 2*1.5 = 1, D = 1/3.
  {
    const std::vector<double> mu{4.0, 4.0};
    expect_vec(best_reply(mu, 2.0), {0.5, 0.5}, "identical best reply");
    expect_vec(sqrt_waterfill(mu, 2.0), {1.0, 1.0}, "identical optimum");
    expect_vec(linear_waterfill(mu, 2.0), {1.0, 1.0}, "identical wardrop");
    expect_vec(proportional(mu, 2.0), {1.0, 1.0}, "identical PS");
    const std::vector<double> lambda{1.0, 1.0};
    expect_near(overall_time(mu, lambda), 1.0 / 3.0, "identical overall D");
    // Two users of demand 1 each at the even split: loads sum to (1, 1).
    const std::vector<double> rows{0.5, 0.5, 0.5, 0.5};
    expect_vec(loads(rows, std::vector<double>{1.0, 1.0}, 2), lambda,
               "two-user loads");
    // A single user (m = 1) of demand 2 on one computer: D = 1/(4-2),
    // its best reply reaches 1/3, a relative gain of (1/2 - 1/3)/(1/2).
    expect_near(relative_gain(std::vector<double>{1.0, 0.0}, 2.0, mu,
                              std::vector<double>{2.0, 0.0}),
                1.0 / 3.0, "m=1 gain off the optimum");
    expect_near(relative_gain(std::vector<double>{0.5, 0.5}, 2.0, mu, lambda),
                0.0, "m=1 gain at the optimum");
  }

  // m = 1, rates 9, 4, 1 (roots 3, 2, 1), demand 6. Full support gives
  // t = (14-6)/6 = 4/3 >= 1, so the slowest is cut; then t = 7/5 < 2:
  // lambda = (9 - 3*1.4, 4 - 2*1.4, 0) = (4.8, 1.2, 0). The Wardrop rule
  // cuts it too: t = 8/3 >= 1, then t = 3.5, lambda = (5.5, 0.5, 0).
  {
    const std::vector<double> mu{9.0, 4.0, 1.0};
    expect_vec(sqrt_waterfill(mu, 6.0), {4.8, 1.2, 0.0}, "cut optimum");
    expect_vec(best_reply(mu, 6.0), {0.8, 0.2, 0.0}, "cut best reply");
    expect_vec(linear_waterfill(mu, 6.0), {5.5, 0.5, 0.0}, "cut wardrop");
    expect_vec(proportional(mu, 7.0), {4.5, 2.0, 0.5}, "PS");
    // Unsorted input keeps its indexing.
    const std::vector<double> shuffled{1.0, 9.0, 4.0};
    expect_vec(sqrt_waterfill(shuffled, 6.0), {0.0, 4.8, 1.2},
               "cut optimum, unsorted");
  }

  if (failures != 0) {
    std::fprintf(stderr, "oracle_test: %d failure(s)\n", failures);
    return EXIT_FAILURE;
  }
  std::puts("oracle_test: ok");
  return EXIT_SUCCESS;
}

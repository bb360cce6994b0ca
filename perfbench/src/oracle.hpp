// The benchmark's independent oracle: closed forms of the paper's
// allocations and M/M/1 costs, written from the formulas and sharing no
// code with the nashlb libraries, so every workload checks the program's
// outputs against a computation made apart from it.
//
//  * best_reply      — Theorem 2.1: sort the available rates decreasingly,
//                      cut the slowest while the water level t reaches
//                      sqrt(a_c), then s_i = (a_i - t sqrt(a_i)) / phi.
//  * sqrt_waterfill  — the same rule on the raw rates and the total demand:
//                      the global optimum (GOS loads).
//  * linear_waterfill— equal response time on the support: the Wardrop
//                      (IOS) loads, lambda_i = c_i - t.
//  * proportional    — PS: lambda_i = Phi mu_i / sum mu.
//  * M/M/1 costs     — from loads the oracle sums itself.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace perfbench::oracle {

/// Loads lambda_i of a sqrt-rule allocation of `demand` over capacities
/// `c` (all > 0, demand < sum c).
std::vector<double> sqrt_waterfill(std::span<const double> c, double demand);

/// Loads of the linear (Wardrop) rule.
std::vector<double> linear_waterfill(std::span<const double> c,
                                     double demand);

/// Loads of the proportional scheme.
std::vector<double> proportional(std::span<const double> mu, double demand);

/// One user's best-reply fractions against available rates `avail`.
std::vector<double> best_reply(std::span<const double> avail, double phi);

/// lambda_i = sum_j rows[j][i] * phi[j], with `rows` row-major m x n.
std::vector<double> loads(std::span<const double> rows,
                          std::span<const double> phi, std::size_t n);

/// D_j = sum_i s_i / (mu_i - lambda_i) for a row at loads `lambda`.
double user_time(std::span<const double> row, std::span<const double> mu,
                 std::span<const double> lambda);

/// D = (1/Phi) sum_i lambda_i / (mu_i - lambda_i).
double overall_time(std::span<const double> mu,
                    std::span<const double> lambda);

/// (D_j(current) - D_j(best reply)) / D_j(current) for a user of demand
/// `phi` playing `row` at loads `lambda` (which include the user's flow).
double relative_gain(std::span<const double> row, double phi,
                     std::span<const double> mu,
                     std::span<const double> lambda);

/// max_i |a_i - b_i| / max(|b_i|, floor).
double max_rel_diff(std::span<const double> a, std::span<const double> b,
                    double floor = 1e-12);

}  // namespace perfbench::oracle

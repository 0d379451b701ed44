#include "stats/special.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace trustrate::stats {

namespace {

// Lanczos approximation coefficients (g = 7, n = 9).
constexpr double kLanczos[9] = {
    0.99999999999980993,  676.5203681218851,     -1259.1392167224028,
    771.32342877765313,   -176.61502916214059,   12.507343278686905,
    -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7};

// Continued fraction for the incomplete gamma function Q(a, x)
// (Numerical Recipes `gcf`).
double gamma_q_continued_fraction(double a, double x) {
  constexpr int kMaxIter = 300;
  constexpr double kEps = 3e-15;
  constexpr double kFpMin = std::numeric_limits<double>::min() / kEps;
  double b = x + 1.0 - a;
  double c = 1.0 / kFpMin;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIter; ++i) {
    const double an = -i * (i - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = b + an / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) <= kEps) break;
  }
  return std::exp(-x + a * std::log(x) - log_gamma(a)) * h;
}

// Series expansion for P(a, x) (Numerical Recipes `gser`).
double gamma_p_series(double a, double x) {
  constexpr int kMaxIter = 300;
  constexpr double kEps = 3e-15;
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int i = 0; i < kMaxIter; ++i) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::fabs(del) < std::fabs(sum) * kEps) break;
  }
  return sum * std::exp(-x + a * std::log(x) - log_gamma(a));
}

// Continued fraction for the incomplete beta function (Lentz's method,
// Numerical Recipes `betacf`).
double beta_continued_fraction(double x, double a, double b) {
  constexpr int kMaxIter = 300;
  constexpr double kEps = 3e-15;
  constexpr double kFpMin = std::numeric_limits<double>::min() / kEps;
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) <= kEps) break;
  }
  return h;
}

// I_x(a, b) for x strictly inside (0, 1), given the log-gamma terms and
// log(x), log(1 - x): beta_quantile computes those once per call and once
// per Newton step instead of once per CDF evaluation. The expressions keep
// the order of the plain formula, so results are bitwise identical.
double regularized_beta_inner(double x, double a, double b, double lg_ab,
                              double lg_a, double lg_b, double log_x,
                              double log_1mx) {
  const double log_front = lg_ab - lg_a - lg_b + a * log_x + b * log_1mx;
  const double front = std::exp(log_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * beta_continued_fraction(x, a, b) / a;
  }
  return 1.0 - front * beta_continued_fraction(1.0 - x, b, a) / b;
}

}  // namespace

double log_gamma(double x) {
  TRUSTRATE_EXPECTS(x > 0.0, "log_gamma requires x > 0");
  if (x < 0.5) {
    // Reflection formula keeps the Lanczos series in its accurate range.
    return std::log(M_PI / std::sin(M_PI * x)) - log_gamma(1.0 - x);
  }
  const double z = x - 1.0;
  double acc = kLanczos[0];
  for (int i = 1; i < 9; ++i) acc += kLanczos[i] / (z + i);
  const double t = z + 7.5;
  return 0.5 * std::log(2.0 * M_PI) + (z + 0.5) * std::log(t) - t + std::log(acc);
}

double regularized_gamma_p(double a, double x) {
  TRUSTRATE_EXPECTS(a > 0.0, "regularized_gamma_p requires a > 0");
  TRUSTRATE_EXPECTS(x >= 0.0, "regularized_gamma_p requires x >= 0");
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return gamma_p_series(a, x);
  return 1.0 - gamma_q_continued_fraction(a, x);
}

double chi_squared_cdf(double x, double k) {
  TRUSTRATE_EXPECTS(k > 0.0, "chi_squared_cdf requires k > 0");
  if (x <= 0.0) return 0.0;
  return regularized_gamma_p(k / 2.0, x / 2.0);
}

double regularized_beta(double x, double a, double b) {
  TRUSTRATE_EXPECTS(a > 0.0 && b > 0.0, "regularized_beta requires a, b > 0");
  TRUSTRATE_EXPECTS(x >= 0.0 && x <= 1.0, "regularized_beta requires x in [0,1]");
  if (x == 0.0) return 0.0;
  if (x == 1.0) return 1.0;
  return regularized_beta_inner(x, a, b, log_gamma(a + b), log_gamma(a),
                                log_gamma(b), std::log(x), std::log(1.0 - x));
}

double beta_cdf(double x, double a, double b) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  return regularized_beta(x, a, b);
}

double beta_quantile(double p, double a, double b) {
  TRUSTRATE_EXPECTS(p >= 0.0 && p <= 1.0, "beta_quantile requires p in [0,1]");
  TRUSTRATE_EXPECTS(a > 0.0 && b > 0.0, "beta_quantile requires a, b > 0");
  if (p == 0.0) return 0.0;
  if (p == 1.0) return 1.0;
  const double lg_ab = log_gamma(a + b);
  const double lg_a = log_gamma(a);
  const double lg_b = log_gamma(b);
  double lo = 0.0;
  double hi = 1.0;
  double x = a / (a + b);  // start at the mean
  // An infinite a or b makes the mean NaN; the CDF's range check rejects it.
  if (std::isnan(x)) return regularized_beta(x, a, b);
  for (int i = 0; i < 200; ++i) {
    const double log_x = std::log(x);
    const double log_1mx = std::log(1.0 - x);
    // beta_cdf(x, a, b), with this step's logs.
    const double c = x <= 0.0   ? 0.0
                     : x >= 1.0 ? 1.0
                                : regularized_beta_inner(x, a, b, lg_ab, lg_a,
                                                         lg_b, log_x, log_1mx);
    if (std::fabs(c - p) < 1e-12) break;
    if (c < p) {
      lo = x;
    } else {
      hi = x;
    }
    // Newton step using the beta pdf, falling back to bisection when it
    // leaves the bracket.
    const double log_pdf =
        (a - 1.0) * log_x + (b - 1.0) * log_1mx + lg_ab - lg_a - lg_b;
    const double pdf = std::exp(log_pdf);
    double next = (pdf > 0.0) ? x - (c - p) / pdf : 0.5 * (lo + hi);
    if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
    if (std::fabs(next - x) < 1e-14) {
      x = next;
      break;
    }
    x = next;
  }
  return x;
}

double normal_cdf(double x) {
  return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

double normal_pdf(double x) {
  return std::exp(-0.5 * x * x) / std::sqrt(2.0 * M_PI);
}

}  // namespace trustrate::stats

// Unit tests for the stats module: descriptive stats, special functions,
// histogram, moving averages, whiteness tests.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "stats/descriptive.hpp"
#include "stats/histogram.hpp"
#include "stats/moving.hpp"
#include "stats/special.hpp"
#include "stats/whiteness.hpp"

namespace trustrate::stats {
namespace {

// ---------------------------------------------------------- descriptive

TEST(Descriptive, SummaryMatchesHandComputation) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.variance, 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST(Descriptive, PopulationVsSampleVariance) {
  const std::vector<double> xs{1.0, 3.0};
  EXPECT_DOUBLE_EQ(population_variance(xs), 1.0);
  EXPECT_DOUBLE_EQ(sample_variance(xs), 2.0);
}

TEST(Descriptive, SingleElementVarianceIsZero) {
  const std::vector<double> xs{3.0};
  EXPECT_DOUBLE_EQ(sample_variance(xs), 0.0);
  EXPECT_DOUBLE_EQ(summarize(xs).stddev, 0.0);
}

TEST(Descriptive, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Descriptive, QuantileEndpointsAndInterpolation) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 25.0);
  EXPECT_THROW(quantile(xs, 1.5), PreconditionError);
}

TEST(Descriptive, PearsonPerfectCorrelation) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{2.0, 4.0, 6.0};
  const std::vector<double> c{6.0, 4.0, 2.0};
  EXPECT_NEAR(pearson_correlation(a, b), 1.0, 1e-12);
  EXPECT_NEAR(pearson_correlation(a, c), -1.0, 1e-12);
}

TEST(Descriptive, PearsonConstantSeriesIsZero) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(pearson_correlation(a, b), 0.0);
}

TEST(Descriptive, RmseZeroForIdenticalSeries) {
  const std::vector<double> a{1.0, 2.0};
  EXPECT_DOUBLE_EQ(rmse(a, a), 0.0);
  const std::vector<double> b{2.0, 3.0};
  EXPECT_DOUBLE_EQ(rmse(a, b), 1.0);
}

TEST(Descriptive, AutocorrelationLagZeroIsOne) {
  Rng rng(3);
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(rng.gaussian(0.0, 1.0));
  const auto r = autocorrelation(xs, 5);
  ASSERT_EQ(r.size(), 6u);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  for (int k = 1; k <= 5; ++k) EXPECT_LT(std::fabs(r[static_cast<std::size_t>(k)]), 0.2);
}

TEST(Descriptive, AutocorrelationConstantSeriesIsZero) {
  const std::vector<double> xs(10, 4.2);
  const auto r = autocorrelation(xs, 3);
  for (double v : r) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Descriptive, AutocorrelationDetectsAlternation) {
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) xs.push_back(i % 2 == 0 ? 1.0 : -1.0);
  const auto r = autocorrelation(xs, 2);
  EXPECT_LT(r[1], -0.9);
  EXPECT_GT(r[2], 0.9);
}

// -------------------------------------------------------------- special

TEST(Special, LogGammaMatchesFactorials) {
  EXPECT_NEAR(log_gamma(1.0), 0.0, 1e-12);
  EXPECT_NEAR(log_gamma(2.0), 0.0, 1e-12);
  EXPECT_NEAR(log_gamma(5.0), std::log(24.0), 1e-10);
  EXPECT_NEAR(log_gamma(11.0), std::log(3628800.0), 1e-8);
}

TEST(Special, LogGammaHalf) {
  EXPECT_NEAR(log_gamma(0.5), std::log(std::sqrt(M_PI)), 1e-10);
}

TEST(Special, RegularizedGammaBoundaries) {
  EXPECT_DOUBLE_EQ(regularized_gamma_p(2.0, 0.0), 0.0);
  EXPECT_NEAR(regularized_gamma_p(1.0, 1.0), 1.0 - std::exp(-1.0), 1e-10);
  EXPECT_NEAR(regularized_gamma_p(1.0, 50.0), 1.0, 1e-12);
}

TEST(Special, ChiSquaredCdfKnownValues) {
  // Chi2 with k=2 is Exp(1/2): CDF(x) = 1 - exp(-x/2).
  EXPECT_NEAR(chi_squared_cdf(2.0, 2.0), 1.0 - std::exp(-1.0), 1e-10);
  // 95th percentile of chi2(1) is about 3.841.
  EXPECT_NEAR(chi_squared_cdf(3.841, 1.0), 0.95, 1e-3);
}

TEST(Special, RegularizedBetaSymmetry) {
  // I_x(a, b) = 1 - I_{1-x}(b, a).
  const double v = regularized_beta(0.3, 2.0, 5.0);
  EXPECT_NEAR(v, 1.0 - regularized_beta(0.7, 5.0, 2.0), 1e-12);
}

TEST(Special, BetaCdfUniformCase) {
  // Beta(1,1) is uniform.
  for (double x : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(beta_cdf(x, 1.0, 1.0), x, 1e-12);
  }
}

TEST(Special, BetaCdfKnownValue) {
  // Beta(2,2): CDF(x) = 3x^2 - 2x^3.
  const double x = 0.25;
  EXPECT_NEAR(beta_cdf(x, 2.0, 2.0), 3 * x * x - 2 * x * x * x, 1e-10);
}

TEST(Special, BetaQuantileInvertsCdf) {
  for (double p : {0.01, 0.1, 0.5, 0.9, 0.99}) {
    for (double a : {0.5, 1.0, 2.0, 8.0}) {
      for (double b : {0.5, 1.0, 3.0}) {
        const double x = beta_quantile(p, a, b);
        EXPECT_NEAR(beta_cdf(x, a, b), p, 1e-7)
            << "p=" << p << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST(Special, BetaQuantileEndpoints) {
  EXPECT_DOUBLE_EQ(beta_quantile(0.0, 2.0, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(beta_quantile(1.0, 2.0, 3.0), 1.0);
}

// The beta quantile as it was before its log-gamma and log terms were
// hoisted: one CDF evaluation per Newton step, each recomputing every term.
// Kept, with the continued fraction and regularized incomplete beta it
// calls, as the reference the hoisted version must match bit for bit.
double reference_beta_continued_fraction(double x, double a, double b) {
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

double reference_beta_cdf(double x, double a, double b) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double log_front = log_gamma(a + b) - log_gamma(a) - log_gamma(b) +
                           a * std::log(x) + b * std::log(1.0 - x);
  const double front = std::exp(log_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * reference_beta_continued_fraction(x, a, b) / a;
  }
  return 1.0 - front * reference_beta_continued_fraction(1.0 - x, b, a) / b;
}

double reference_beta_quantile(double p, double a, double b) {
  if (p == 0.0) return 0.0;
  if (p == 1.0) return 1.0;
  double lo = 0.0;
  double hi = 1.0;
  double x = a / (a + b);
  for (int i = 0; i < 200; ++i) {
    const double c = reference_beta_cdf(x, a, b);
    if (std::fabs(c - p) < 1e-12) break;
    if (c < p) {
      lo = x;
    } else {
      hi = x;
    }
    const double log_pdf = (a - 1.0) * std::log(x) + (b - 1.0) * std::log(1.0 - x) +
                           log_gamma(a + b) - log_gamma(a) - log_gamma(b);
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

TEST(Special, BetaQuantileBitwiseMatchesReference) {
  Rng rng(20070625);
  std::size_t mismatches = 0;
  constexpr int kDraws = 24000;
  for (int i = 0; i < kDraws; ++i) {
    // Shapes from 0.01 to 1000 on a log scale (two in five below 1),
    // probabilities uniform, with every eighth draw pushed to within
    // 1e-12..1e-3 of 0 or 1.
    const double a = std::pow(10.0, rng.uniform(-2.0, 3.0));
    const double b = std::pow(10.0, rng.uniform(-2.0, 3.0));
    double p = rng.uniform();
    if (i % 8 == 0) {
      const double tail = std::pow(10.0, rng.uniform(-12.0, -3.0));
      p = (i % 16 == 0) ? tail : 1.0 - tail;
    }
    const double got = beta_quantile(p, a, b);
    const double want = reference_beta_quantile(p, a, b);
    if (std::memcmp(&got, &want, sizeof got) != 0) {
      ++mismatches;
      ADD_FAILURE() << std::hexfloat << "p=" << p << " a=" << a << " b=" << b
                    << " got " << got << " want " << want;
      if (mismatches > 10) break;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Special, NormalCdfSymmetry) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(normal_cdf(-1.96) + normal_cdf(1.96), 1.0, 1e-12);
}

// ------------------------------------------------------------ histogram

TEST(Histogram, CountsLandInRightBins) {
  Histogram h(0.0, 1.0, 10);
  h.add(0.05);   // bin 0
  h.add(0.15);   // bin 1
  h.add(0.999);  // bin 9
  h.add(1.0);    // clamped into bin 9
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, OutOfRangeClampsToBoundaryBins) {
  Histogram h(0.0, 1.0, 4);
  h.add(-5.0);
  h.add(5.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(3), 1u);
}

TEST(Histogram, FrequenciesSumToOne) {
  Histogram h(0.0, 1.0, 5);
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) h.add(rng.uniform());
  double total = 0.0;
  for (int i = 0; i < h.bins(); ++i) total += h.frequency(i);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Histogram, BinCenters) {
  Histogram h(0.0, 1.0, 4);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.125);
  EXPECT_DOUBLE_EQ(h.bin_center(3), 0.875);
}

TEST(Histogram, EntropyUniformBeatsPeaked) {
  Histogram uniform(0.0, 1.0, 4);
  Histogram peaked(0.0, 1.0, 4);
  for (int i = 0; i < 400; ++i) {
    uniform.add((i % 4) * 0.25 + 0.1);
    peaked.add(0.1);
  }
  EXPECT_NEAR(uniform.entropy(), std::log(4.0), 1e-9);
  EXPECT_DOUBLE_EQ(peaked.entropy(), 0.0);
}

TEST(Histogram, EmptyHistogramIsWellDefined) {
  Histogram h(0.0, 1.0, 3);
  EXPECT_DOUBLE_EQ(h.frequency(0), 0.0);
  EXPECT_DOUBLE_EQ(h.entropy(), 0.0);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), PreconditionError);
  EXPECT_THROW(Histogram(1.0, 0.0, 4), PreconditionError);
}

// --------------------------------------------------------------- moving

TEST(Moving, CountWindowsMatchPaperGeometry) {
  // Fig. 4: 20-rating windows stepping by 10.
  std::vector<double> values(50, 1.0);
  std::vector<double> pos(50);
  for (int i = 0; i < 50; ++i) pos[static_cast<std::size_t>(i)] = i;
  const auto pts = moving_average_by_count(values, pos, 20, 10);
  ASSERT_EQ(pts.size(), 4u);  // starts at 0, 10, 20, 30
  EXPECT_DOUBLE_EQ(pts[0].value, 1.0);
  EXPECT_DOUBLE_EQ(pts[0].position, 9.5);
  EXPECT_EQ(pts[0].count, 20u);
}

TEST(Moving, CountWindowAveragesValues) {
  const std::vector<double> values{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> pos{0.0, 1.0, 2.0, 3.0};
  const auto pts = moving_average_by_count(values, pos, 2, 2);
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_DOUBLE_EQ(pts[0].value, 1.5);
  EXPECT_DOUBLE_EQ(pts[1].value, 3.5);
}

TEST(Moving, TimeWindowsSkipEmpty) {
  const std::vector<double> values{1.0, 3.0};
  const std::vector<double> pos{0.5, 10.5};
  const auto pts = moving_average_by_time(values, pos, 0.0, 12.0, 1.0, 1.0);
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_DOUBLE_EQ(pts[0].value, 1.0);
  EXPECT_DOUBLE_EQ(pts[1].value, 3.0);
}

TEST(Moving, MismatchedInputsThrow) {
  const std::vector<double> values{1.0};
  const std::vector<double> pos{1.0, 2.0};
  EXPECT_THROW(moving_average_by_count(values, pos, 1, 1), PreconditionError);
}

// ------------------------------------------------------------ whiteness

TEST(Whiteness, LjungBoxAcceptsWhiteNoise) {
  Rng rng(21);
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(rng.gaussian(0.0, 1.0));
  const auto res = ljung_box(xs, 10);
  EXPECT_GT(res.p_value, 0.01);
}

TEST(Whiteness, LjungBoxRejectsAr1) {
  Rng rng(22);
  std::vector<double> xs{0.0};
  for (int i = 1; i < 500; ++i) {
    xs.push_back(0.8 * xs.back() + rng.gaussian(0.0, 1.0));
  }
  const auto res = ljung_box(xs, 10);
  EXPECT_LT(res.p_value, 1e-6);
}

TEST(Whiteness, TurningPointAcceptsWhiteRejectsTrend) {
  Rng rng(23);
  std::vector<double> white;
  std::vector<double> trend;
  for (int i = 0; i < 400; ++i) {
    white.push_back(rng.gaussian(0.0, 1.0));
    trend.push_back(i * 0.1 + rng.gaussian(0.0, 0.01));
  }
  EXPECT_GT(turning_point(white).p_value, 0.01);
  EXPECT_LT(turning_point(trend).p_value, 1e-6);
}

TEST(Whiteness, PreconditionChecks) {
  const std::vector<double> xs{1.0, 2.0};
  EXPECT_THROW(ljung_box(xs, 5), PreconditionError);
  EXPECT_THROW(turning_point(xs), PreconditionError);
}

}  // namespace
}  // namespace trustrate::stats

/** @file Vector and matrix primitives used by clustering/PCA. */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/math.hh"
#include "core/rng.hh"
#include "tests/analyzer/synthetic.hh"

namespace tpupoint {
namespace {

using testutil::bitMismatch;
using testutil::matrixOf;

/**
 * Matrix::covariance before blocking, kept as the oracle: the mean
 * by row-order adds and one scale, then a rank-one update of the
 * upper triangle per row, then scale and mirror.
 */
Matrix
rankOneCovariance(const Matrix &data, FeatureVector &mean_out)
{
    const std::size_t dim = data.cols();
    FeatureVector mean(dim, 0.0);
    for (std::size_t r = 0; r < data.rows(); ++r)
        for (std::size_t i = 0; i < dim; ++i)
            mean[i] += data.at(r, i);
    const double inv = 1.0 / static_cast<double>(data.rows());
    for (double &m : mean)
        m *= inv;

    Matrix cov(dim, dim);
    for (std::size_t r = 0; r < data.rows(); ++r) {
        const double *row = data.rowPtr(r);
        for (std::size_t i = 0; i < dim; ++i) {
            const double di = row[i] - mean[i];
            double *out = cov.rowPtr(i);
            for (std::size_t j = i; j < dim; ++j)
                out[j] += di * (row[j] - mean[j]);
        }
    }
    for (std::size_t i = 0; i < dim; ++i) {
        for (std::size_t j = i; j < dim; ++j) {
            cov.at(i, j) *= inv;
            cov.at(j, i) = cov.at(i, j);
        }
    }
    mean_out = mean;
    return cov;
}

/**
 * @p rows x @p dim cells whose columns are, at random: all zero,
 * all -0.0, constant, a copy of the previous column, small counts,
 * uniform in [-1, 1), or Gaussians scaled by 1e-8 .. 1e8 per cell.
 */
Matrix
awkwardData(std::size_t rows, std::size_t dim, Rng &rng)
{
    Matrix m(rows, dim);
    for (std::size_t c = 0; c < dim; ++c) {
        const std::uint64_t kind = rng.nextBounded(7);
        for (std::size_t r = 0; r < rows; ++r) {
            double &cell = m.at(r, c);
            switch (kind) {
              case 0:
                break;
              case 1:
                cell = -0.0;
                break;
              case 2:
                cell = 3.25;
                break;
              case 3:
                cell = c > 0 ? m.at(r, c - 1) : rng.nextGaussian();
                break;
              case 4:
                cell = static_cast<double>(rng.nextBounded(6));
                break;
              case 5:
                cell = rng.uniform(-1.0, 1.0);
                break;
              default:
                cell = rng.nextGaussian() *
                       std::pow(10.0, rng.uniform(-8.0, 8.0));
                break;
            }
        }
    }
    return m;
}

/** Sequential dot products, one accumulator from +0.0. */
FeatureVector
sequentialMultiply(const Matrix &m, const FeatureVector &v)
{
    FeatureVector out(m.rows(), 0.0);
    for (std::size_t r = 0; r < m.rows(); ++r) {
        double sum = 0.0;
        for (std::size_t c = 0; c < m.cols(); ++c)
            sum += m.at(r, c) * v[c];
        out[r] = sum;
    }
    return out;
}

TEST(VectorMathTest, DotAndNorm)
{
    const FeatureVector a{1, 2, 3};
    const FeatureVector b{4, 5, 6};
    EXPECT_EQ(dot(a, b), 32.0);
    EXPECT_DOUBLE_EQ(l2Norm({3, 4}), 5.0);
}

TEST(VectorMathTest, DotDimensionMismatchPanics)
{
    EXPECT_THROW(dot({1, 2}, {1, 2, 3}), std::logic_error);
}

TEST(VectorMathTest, Distances)
{
    const double origin[] = {0, 0};
    const double far[] = {3, 4};
    const double ones[] = {1, 1};
    EXPECT_EQ(squaredDistanceN(origin, far, 2), 25.0);
    EXPECT_EQ(std::sqrt(squaredDistanceN(origin, far, 2)), 5.0);
    EXPECT_EQ(squaredDistanceN(ones, ones, 2), 0.0);
}

TEST(VectorMathTest, AddAndScaleInPlace)
{
    FeatureVector a{1, 2};
    const double b[] = {3, 4};
    addN(a.data(), b, 2);
    EXPECT_EQ(a[0], 4.0);
    EXPECT_EQ(a[1], 6.0);
    scaleInPlace(a, 0.5);
    EXPECT_EQ(a[0], 2.0);
    EXPECT_EQ(a[1], 3.0);
}

TEST(VectorMathTest, NormalizeHandlesZeroVector)
{
    FeatureVector z{0, 0, 0};
    normalizeInPlace(z);
    EXPECT_EQ(z[0], 0.0);
    FeatureVector v{0, 3, 4};
    normalizeInPlace(v);
    EXPECT_NEAR(l2Norm(v), 1.0, 1e-12);
}

TEST(MatrixTest, MultiplyAndTranspose)
{
    Matrix m(2, 3);
    // [1 2 3; 4 5 6]
    int value = 1;
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            m.at(r, c) = value++;
    const FeatureVector result = m.multiply({1, 1, 1});
    ASSERT_EQ(result.size(), 2u);
    EXPECT_EQ(result[0], 6.0);
    EXPECT_EQ(result[1], 15.0);
}

TEST(MatrixTest, OutOfRangeAccessPanics)
{
    Matrix m(2, 2);
    EXPECT_THROW(m.at(2, 0), std::logic_error);
    EXPECT_THROW(m.multiply({1, 2, 3}), std::logic_error);
}

TEST(MatrixTest, CovarianceOfKnownData)
{
    // Two perfectly correlated dimensions.
    const Matrix data = matrixOf({{1, 2}, {2, 4}, {3, 6}});
    const Matrix cov = Matrix::covariance(data);
    // var(x) = 2/3, var(y) = 8/3, cov = 4/3.
    EXPECT_NEAR(cov.at(0, 0), 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(cov.at(1, 1), 8.0 / 3.0, 1e-12);
    EXPECT_NEAR(cov.at(0, 1), 4.0 / 3.0, 1e-12);
    EXPECT_NEAR(cov.at(1, 0), cov.at(0, 1), 1e-12);
}

TEST(MatrixTest, CovarianceMatchesRankOneOracle)
{
    Rng rng(11);
    const auto expectOracle = [](const Matrix &data) {
        FeatureVector mean, want_mean;
        const Matrix cov = Matrix::covariance(data, &mean);
        const Matrix want = rankOneCovariance(data, want_mean);
        EXPECT_EQ(bitMismatch(cov, want), "")
            << data.rows() << " rows x " << data.cols() << " cols";
        EXPECT_EQ(bitMismatch(matrixOf({mean}), matrixOf({want_mean})),
                  "");
    };
    // Every width residue mod 4; the tall case spans several
    // cache chunks at any width above a few columns.
    for (std::size_t dim = 1; dim <= 130; ++dim)
        for (const std::size_t rows :
             {std::size_t{1}, std::size_t{2}, 3 + dim % 11,
              std::size_t{300}})
            expectOracle(awkwardData(rows, dim, rng));
    // Narrow rows make long chunks: cross those too.
    for (std::size_t dim = 1; dim <= 9; ++dim)
        expectOracle(awkwardData(2100, dim, rng));
    // A cell whose every product is -0.0 sums to +0.0, as the
    // oracle's zero-initialized sums do.
    Matrix signed_zero(5, 2);
    for (std::size_t r = 0; r < 5; ++r)
        signed_zero.at(r, 0) = -0.0;
    expectOracle(signed_zero);
    EXPECT_FALSE(std::signbit(Matrix::covariance(signed_zero).at(0, 1)));
    // Non-finite cells propagate to the same cells.
    Matrix non_finite = awkwardData(40, 23, rng);
    non_finite.at(3, 4) = std::numeric_limits<double>::quiet_NaN();
    non_finite.at(17, 20) = std::numeric_limits<double>::infinity();
    expectOracle(non_finite);
}

TEST(MatrixTest, MultiplyMatchesDotNOracle)
{
    Rng rng(12);
    for (std::size_t rows = 1; rows <= 13; ++rows) {
        for (const std::size_t cols :
             {1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33, 106}) {
            const Matrix m = awkwardData(rows, cols, rng);
            FeatureVector v(cols);
            for (double &x : v)
                x = rng.uniform(-2.0, 2.0);
            const Matrix got = matrixOf({m.multiply(v)});
            const Matrix want = matrixOf({sequentialMultiply(m, v)});
            EXPECT_EQ(bitMismatch(got, want), "")
                << rows << " x " << cols;
        }
    }
    // A deflated covariance, as power iteration multiplies: cells
    // (lambda * v[i]) * v[j] make it asymmetric in the last bits.
    Matrix cov = Matrix::covariance(awkwardData(50, 21, rng));
    FeatureVector u(21);
    for (double &x : u)
        x = rng.uniform(-1.0, 1.0);
    normalizeInPlace(u);
    for (std::size_t i = 0; i < 21; ++i)
        for (std::size_t j = 0; j < 21; ++j)
            cov.at(i, j) -= 0.75 * u[i] * u[j];
    EXPECT_EQ(bitMismatch(matrixOf({cov.multiply(u)}),
                          matrixOf({sequentialMultiply(cov, u)})),
              "");
}

TEST(MatrixTest, CovarianceRejectsBadInput)
{
    EXPECT_THROW(Matrix::covariance(Matrix{}), std::runtime_error);
}

} // namespace
} // namespace tpupoint

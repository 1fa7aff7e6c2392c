/** @file PCA via power iteration. */

#include <gtest/gtest.h>

#include <cmath>

#include "analyzer/pca.hh"
#include "tests/analyzer/synthetic.hh"

namespace tpupoint {
namespace {

using testutil::bitMismatch;
using testutil::matrixOf;

TEST(PcaTest, RecoversDominantDirection)
{
    // Points spread along (1, 1)/sqrt(2) with tiny noise.
    Rng rng(1);
    std::vector<FeatureVector> points;
    for (int i = 0; i < 500; ++i) {
        const double t = rng.gaussian(0, 10);
        const double n = rng.gaussian(0, 0.1);
        points.push_back({t + n, t - n});
    }
    Rng pca_rng(2);
    const PcaModel model = fitPca(matrixOf(points), 1, pca_rng);
    ASSERT_EQ(model.components.size(), 1u);
    const FeatureVector &c = model.components[0];
    // Direction (up to sign) is (1, 1)/sqrt(2).
    EXPECT_NEAR(std::abs(c[0]), std::sqrt(0.5), 0.02);
    EXPECT_NEAR(std::abs(c[1]), std::sqrt(0.5), 0.02);
    EXPECT_GT(model.eigenvalues[0], 50.0);
}

TEST(PcaTest, ComponentsAreOrthonormal)
{
    Rng rng(3);
    std::vector<FeatureVector> points;
    for (int i = 0; i < 300; ++i) {
        points.push_back({rng.gaussian(0, 5), rng.gaussian(0, 2),
                          rng.gaussian(0, 1)});
    }
    Rng pca_rng(4);
    const PcaModel model = fitPca(matrixOf(points), 3, pca_rng);
    ASSERT_EQ(model.components.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_NEAR(l2Norm(model.components[i]), 1.0, 1e-6);
        for (std::size_t j = i + 1; j < 3; ++j) {
            EXPECT_NEAR(dot(model.components[i],
                            model.components[j]),
                        0.0, 1e-3);
        }
    }
    // Eigenvalues descend.
    EXPECT_GE(model.eigenvalues[0], model.eigenvalues[1]);
    EXPECT_GE(model.eigenvalues[1], model.eigenvalues[2]);
}

TEST(PcaTest, ProjectionReducesDimension)
{
    Rng rng(5);
    std::vector<FeatureVector> points;
    for (int i = 0; i < 100; ++i) {
        FeatureVector p(10);
        for (auto &x : p)
            x = rng.nextDouble();
        points.push_back(std::move(p));
    }
    const Matrix data = matrixOf(points);
    Rng pca_rng(6);
    const PcaModel model = fitPca(data, 4, pca_rng);
    const Matrix projected = model.projectAll(data);
    ASSERT_EQ(projected.rows(), data.rows());
    EXPECT_EQ(projected.cols(), model.components.size());
}

TEST(PcaTest, ProjectAllMatchesDotNOracle)
{
    Rng rng(10);
    for (std::size_t k = 1; k <= 17; ++k) {
        const std::size_t dim = k + (k * 7) % 13;
        PcaModel model;
        model.mean.resize(dim);
        for (double &m : model.mean)
            m = rng.gaussian(0, 3);
        for (std::size_t c = 0; c < k; ++c) {
            FeatureVector component(dim);
            for (double &x : component)
                x = rng.uniform(-1.0, 1.0);
            normalizeInPlace(component);
            model.components.push_back(std::move(component));
        }
        Matrix points(9, dim);
        for (std::size_t r = 0; r < points.rows(); ++r)
            for (std::size_t i = 0; i < dim; ++i)
                points.at(r, i) = rng.gaussian(0, 10);

        // The per-component loop before blocking: center, then one
        // sequential dot product per component.
        Matrix want(points.rows(), k);
        for (std::size_t r = 0; r < points.rows(); ++r) {
            for (std::size_t c = 0; c < k; ++c) {
                double sum = 0.0;
                for (std::size_t i = 0; i < dim; ++i)
                    sum += model.components[c][i] *
                           (points.at(r, i) - model.mean[i]);
                want.at(r, c) = sum;
            }
        }
        EXPECT_EQ(bitMismatch(model.projectAll(points), want), "")
            << k << " components";
    }
}

TEST(PcaTest, RequestedComponentsCappedByDimension)
{
    const Matrix points = matrixOf({{1, 2}, {3, 4}, {5, 7}});
    Rng rng(7);
    const PcaModel model = fitPca(points, 10, rng);
    EXPECT_LE(model.components.size(), 2u);
}

TEST(PcaTest, DegenerateDataStopsEarly)
{
    // All identical points: zero variance everywhere.
    const Matrix points =
        matrixOf(std::vector<FeatureVector>(10, FeatureVector{1, 2, 3}));
    Rng rng(8);
    const PcaModel model = fitPca(points, 3, rng);
    EXPECT_TRUE(model.components.empty());
}

TEST(PcaTest, EmptyDataRejected)
{
    Rng rng(9);
    EXPECT_THROW(fitPca(Matrix{}, 2, rng), std::runtime_error);
}

} // namespace
} // namespace tpupoint

#include "analyzer/pca.hh"

#include <algorithm>
#include <cmath>

#include "core/logging.hh"

namespace tpupoint {

Matrix
PcaModel::projectAll(const Matrix &points) const
{
    Matrix out(points.rows(), components.size());
    FeatureVector centered(mean.size(), 0.0);
    for (std::size_t r = 0; r < points.rows(); ++r) {
        const double *row = points.rowPtr(r);
        for (std::size_t i = 0; i < mean.size(); ++i)
            centered[i] = row[i] - mean[i];
        double *dst = out.rowPtr(r);
        for (std::size_t c = 0; c < components.size(); ++c) {
            dst[c] = dotN(components[c].data(), centered.data(),
                          centered.size());
        }
    }
    return out;
}

PcaModel
fitPca(const Matrix &points, std::size_t num_components, Rng &rng,
       int iterations)
{
    if (points.rows() == 0)
        fatal("fitPca: empty data set");
    const std::size_t dim = points.cols();
    num_components = std::min(num_components, dim);

    PcaModel model;
    // Row-order adds, one final scale (as Matrix::covariance).
    model.mean.assign(dim, 0.0);
    for (std::size_t r = 0; r < points.rows(); ++r)
        addN(model.mean.data(), points.rowPtr(r), dim);
    scaleInPlace(model.mean,
                 1.0 / static_cast<double>(points.rows()));

    Matrix cov = Matrix::covariance(points);

    for (std::size_t c = 0; c < num_components; ++c) {
        // Power iteration for the current dominant eigenvector.
        FeatureVector v(dim);
        for (auto &x : v)
            x = rng.uniform(-1.0, 1.0);
        normalizeInPlace(v);

        double eigenvalue = 0.0;
        for (int it = 0; it < iterations; ++it) {
            FeatureVector next = cov.multiply(v);
            const double norm = l2Norm(next);
            if (norm < 1e-12) {
                eigenvalue = 0.0;
                break;
            }
            scaleInPlace(next, 1.0 / norm);
            eigenvalue = norm;
            v = std::move(next);
        }
        if (eigenvalue <= 1e-12)
            break; // remaining variance is numerically zero

        // Deflate: cov -= lambda * v v^T.
        for (std::size_t i = 0; i < dim; ++i) {
            for (std::size_t j = 0; j < dim; ++j) {
                cov.at(i, j) -= eigenvalue * v[i] * v[j];
            }
        }
        model.components.push_back(std::move(v));
        model.eigenvalues.push_back(eigenvalue);
    }
    return model;
}

} // namespace tpupoint

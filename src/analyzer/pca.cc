#include "analyzer/pca.hh"

#include <algorithm>
#include <cmath>

#include "core/logging.hh"

namespace tpupoint {

Matrix
PcaModel::projectAll(const Matrix &points) const
{
    const std::size_t rows = points.rows();
    const std::size_t dim = mean.size();
    const std::size_t count = components.size();
    Matrix out(rows, count);

    // Each component value in both lanes; zero components pad the
    // count to a multiple of four.
    const std::size_t padded = (count + 3) / 4 * 4;
    std::vector<DoublePair> basis(padded * dim, DoublePair{0.0, 0.0});
    for (std::size_t c = 0; c < count; ++c)
        for (std::size_t i = 0; i < dim; ++i)
            basis[c * dim + i] =
                DoublePair{components[c][i], components[c][i]};

    // Two rows per pass, one per lane, four components at a time:
    // out(r, c) is dotN(component c, row r - mean) bit for bit.
    std::vector<DoublePair> centered(dim);
    for (std::size_t r = 0; r < rows; r += 2) {
        const bool pair = r + 1 < rows;
        const double *x0 = points.rowPtr(r);
        const double *x1 = pair ? points.rowPtr(r + 1) : x0;
        double *y0 = out.rowPtr(r);
        double *y1 = pair ? out.rowPtr(r + 1) : nullptr;
        for (std::size_t i = 0; i < dim; ++i)
            centered[i] = DoublePair{x0[i] - mean[i], x1[i] - mean[i]};
        for (std::size_t c = 0; c < padded; c += 4) {
            const DoublePair *b0 = basis.data() + c * dim;
            const DoublePair *b1 = b0 + dim;
            const DoublePair *b2 = b1 + dim;
            const DoublePair *b3 = b2 + dim;
            DoublePair s0 = {0.0, 0.0}, s1 = s0, s2 = s0, s3 = s0;
            for (std::size_t i = 0; i < dim; ++i) {
                const DoublePair x = centered[i];
                s0 += b0[i] * x;
                s1 += b1[i] * x;
                s2 += b2[i] * x;
                s3 += b3[i] * x;
            }
            const DoublePair sums[4] = {s0, s1, s2, s3};
            for (std::size_t q = 0; q < 4 && c + q < count; ++q) {
                y0[c + q] = sums[q][0];
                if (pair)
                    y1[c + q] = sums[q][1];
            }
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
    Matrix cov = Matrix::covariance(points, &model.mean);

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

        // Deflate: cov -= lambda * v v^T, each cell as
        // (lambda * v[i]) * v[j].
        for (std::size_t i = 0; i < dim; ++i) {
            double *row = cov.rowPtr(i);
            const double scaled = eigenvalue * v[i];
            for (std::size_t j = 0; j < dim; ++j)
                row[j] -= scaled * v[j];
        }
        model.components.push_back(std::move(v));
        model.eigenvalues.push_back(eigenvalue);
    }
    return model;
}

} // namespace tpupoint

#include "core/math.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/logging.hh"

namespace tpupoint {

double
dot(const FeatureVector &a, const FeatureVector &b)
{
    if (a.size() != b.size())
        panic("dot: dimension mismatch ", a.size(), " vs ", b.size());
    return dotN(a.data(), b.data(), a.size());
}

double
l2Norm(const FeatureVector &v)
{
    return std::sqrt(dot(v, v));
}

void
scaleInPlace(FeatureVector &v, double s)
{
    scaleN(v.data(), s, v.size());
}

void
normalizeInPlace(FeatureVector &v)
{
    const double norm = l2Norm(v);
    if (norm > 0.0)
        scaleInPlace(v, 1.0 / norm);
}

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : num_rows(rows), num_cols(cols), cells(rows * cols, 0.0)
{
}

double &
Matrix::at(std::size_t r, std::size_t c)
{
    if (r >= num_rows || c >= num_cols)
        panic("Matrix::at out of range");
    return cells[r * num_cols + c];
}

double
Matrix::at(std::size_t r, std::size_t c) const
{
    if (r >= num_rows || c >= num_cols)
        panic("Matrix::at out of range");
    return cells[r * num_cols + c];
}

double *
Matrix::rowPtr(std::size_t r)
{
    if (r >= num_rows)
        panic("Matrix::rowPtr out of range");
    // data() + offset stays valid for zero-column matrices.
    return cells.data() + r * num_cols;
}

const double *
Matrix::rowPtr(std::size_t r) const
{
    if (r >= num_rows)
        panic("Matrix::rowPtr out of range");
    return cells.data() + r * num_cols;
}

void
Matrix::resize(std::size_t rows, std::size_t cols)
{
    num_rows = rows;
    num_cols = cols;
    cells.assign(rows * cols, 0.0);
}

FeatureVector
Matrix::row(std::size_t r) const
{
    const double *p = rowPtr(r);
    return FeatureVector(p, p + num_cols);
}

FeatureVector
Matrix::multiply(const FeatureVector &v) const
{
    if (v.size() != num_cols)
        panic("Matrix::multiply: dimension mismatch");
    FeatureVector out(num_rows, 0.0);
    const double *x = v.data();
    std::size_t r = 0;
    for (; r + 4 <= num_rows; r += 4) {
        const double *a0 = cells.data() + r * num_cols;
        const double *a1 = a0 + num_cols;
        const double *a2 = a1 + num_cols;
        const double *a3 = a2 + num_cols;
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        for (std::size_t i = 0; i < num_cols; ++i) {
            s0 += a0[i] * x[i];
            s1 += a1[i] * x[i];
            s2 += a2[i] * x[i];
            s3 += a3[i] * x[i];
        }
        out[r] = s0;
        out[r + 1] = s1;
        out[r + 2] = s2;
        out[r + 3] = s3;
    }
    for (; r < num_rows; ++r)
        out[r] = dotN(cells.data() + r * num_cols, x, num_cols);
    return out;
}

namespace {

DoublePair
loadPair(const double *p)
{
    DoublePair v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

void
storePair(double *p, DoublePair v)
{
    std::memcpy(p, &v, sizeof v);
}

/** Bytes of centered rows one covariance chunk spans: small enough
 * that every tile pass over the chunk hits L1/L2. */
constexpr std::size_t kCovarianceChunkBytes = 32 * 1024;

/**
 * sums[(ti + a) * width + tj + b] += c[r][ti + a] * c[r][tj + b]
 * for a, b in 0..3 and r in [r0, r1), in row order: one 4 x 4 tile
 * of the upper triangle, its 16 running sums held in registers.
 */
void
accumulateTile(const double *c, std::size_t width, std::size_t r0,
               std::size_t r1, std::size_t ti, std::size_t tj,
               double *sums)
{
    // Named accumulators, not an array: GCC keeps them in registers
    // only when each one is its own variable.
    double *s0 = sums + ti * width + tj;
    double *s1 = s0 + width;
    double *s2 = s1 + width;
    double *s3 = s2 + width;
    DoublePair a00 = loadPair(s0), a01 = loadPair(s0 + 2);
    DoublePair a10 = loadPair(s1), a11 = loadPair(s1 + 2);
    DoublePair a20 = loadPair(s2), a21 = loadPair(s2 + 2);
    DoublePair a30 = loadPair(s3), a31 = loadPair(s3 + 2);
    for (std::size_t r = r0; r < r1; ++r) {
        const double *row = c + r * width;
        const DoublePair j01 = loadPair(row + tj);
        const DoublePair j23 = loadPair(row + tj + 2);
        const DoublePair i0 = {row[ti], row[ti]};
        const DoublePair i1 = {row[ti + 1], row[ti + 1]};
        const DoublePair i2 = {row[ti + 2], row[ti + 2]};
        const DoublePair i3 = {row[ti + 3], row[ti + 3]};
        a00 += i0 * j01;
        a01 += i0 * j23;
        a10 += i1 * j01;
        a11 += i1 * j23;
        a20 += i2 * j01;
        a21 += i2 * j23;
        a30 += i3 * j01;
        a31 += i3 * j23;
    }
    storePair(s0, a00);
    storePair(s0 + 2, a01);
    storePair(s1, a10);
    storePair(s1 + 2, a11);
    storePair(s2, a20);
    storePair(s2 + 2, a21);
    storePair(s3, a30);
    storePair(s3 + 2, a31);
}

} // namespace

Matrix
Matrix::covariance(const Matrix &data, FeatureVector *mean_out)
{
    if (data.rows() == 0)
        fatal("Matrix::covariance: empty data set");
    const std::size_t rows = data.rows();
    const std::size_t dim = data.cols();
    const double inv = 1.0 / static_cast<double>(rows);

    FeatureVector mean(dim, 0.0);
    for (std::size_t r = 0; r < rows; ++r)
        addN(mean.data(), data.rowPtr(r), dim);
    scaleN(mean.data(), inv, dim);

    // Center once, into rows padded with zero cells to a whole
    // number of tiles; the padding's sums are computed and dropped.
    const std::size_t width = (dim + 3) / 4 * 4;
    std::vector<double> centered(rows * width, 0.0);
    for (std::size_t r = 0; r < rows; ++r) {
        const double *row = data.rowPtr(r);
        double *dst = centered.data() + r * width;
        for (std::size_t i = 0; i < dim; ++i)
            dst[i] = row[i] - mean[i];
    }

    std::vector<double> sums(width * width, 0.0);
    const std::size_t chunk = std::max<std::size_t>(
        1, kCovarianceChunkBytes / sizeof(double) /
               std::max<std::size_t>(width, 4));
    for (std::size_t r0 = 0; r0 < rows; r0 += chunk) {
        const std::size_t r1 = std::min(rows, r0 + chunk);
        for (std::size_t ti = 0; ti < width; ti += 4)
            for (std::size_t tj = ti; tj < width; tj += 4)
                accumulateTile(centered.data(), width, r0, r1, ti,
                               tj, sums.data());
    }

    Matrix cov(dim, dim);
    for (std::size_t i = 0; i < dim; ++i) {
        const double *sum = sums.data() + i * width;
        double *out = cov.rowPtr(i);
        for (std::size_t j = i; j < dim; ++j) {
            out[j] = sum[j] * inv;
            cov.cells[j * dim + i] = out[j];
        }
    }
    if (mean_out != nullptr)
        *mean_out = std::move(mean);
    return cov;
}

} // namespace tpupoint

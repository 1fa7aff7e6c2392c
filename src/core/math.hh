/**
 * @file
 * Dense linear-algebra primitives backing the analyzer's clustering
 * and PCA implementations: feature vectors and a small row-major
 * matrix.
 */

#ifndef TPUPOINT_CORE_MATH_HH
#define TPUPOINT_CORE_MATH_HH

#include <cstddef>
#include <vector>

namespace tpupoint {

/** A dense feature vector (one per training step in the analyzer). */
using FeatureVector = std::vector<double>;

/**
 * Raw-pointer kernels over contiguous doubles: the inner loops of
 * the clustering and PCA hot paths, inline so that k-means and
 * DBSCAN pay no call per distance.
 *
 * The contract every kernel here and in Matrix keeps: each output
 * sums its terms into one accumulator that starts at +0.0 and adds
 * them in index order. Unrolling computes several terms per trip,
 * and blocking (Matrix::multiply, Matrix::covariance,
 * PcaModel::projectAll) runs several outputs' sums side by side,
 * in separate variables or in the lanes of a DoublePair,
 * but no output's additions are ever regrouped or reordered, so
 * every result is bit-identical to the naive sequential loop at any
 * unroll or block size.
 */
inline double
dotN(const double *a, const double *b, std::size_t n)
{
    double sum = 0.0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const double p0 = a[i] * b[i];
        const double p1 = a[i + 1] * b[i + 1];
        const double p2 = a[i + 2] * b[i + 2];
        const double p3 = a[i + 3] * b[i + 3];
        sum += p0;
        sum += p1;
        sum += p2;
        sum += p3;
    }
    for (; i < n; ++i)
        sum += a[i] * b[i];
    return sum;
}

inline double
squaredDistanceN(const double *a, const double *b, std::size_t n)
{
    double sum = 0.0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const double d0 = a[i] - b[i];
        const double d1 = a[i + 1] - b[i + 1];
        const double d2 = a[i + 2] - b[i + 2];
        const double d3 = a[i + 3] - b[i + 3];
        sum += d0 * d0;
        sum += d1 * d1;
        sum += d2 * d2;
        sum += d3 * d3;
    }
    for (; i < n; ++i) {
        const double d = a[i] - b[i];
        sum += d * d;
    }
    return sum;
}

inline void
addN(double *a, const double *b, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        a[i] += b[i];
}

inline void
scaleN(double *v, double s, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        v[i] *= s;
}

/**
 * Two doubles in one SSE2 register (a GCC/Clang vector type): the
 * blocked kernels keep two outputs' sums in its two lanes.
 */
typedef double DoublePair __attribute__((vector_size(16)));

/** Dot product; vectors must have equal dimension. */
double dot(const FeatureVector &a, const FeatureVector &b);

/** Euclidean (L2) norm. */
double l2Norm(const FeatureVector &v);

/** v *= s (element-wise). */
void scaleInPlace(FeatureVector &v, double s);

/** Normalize to unit L2 norm; zero vectors are left unchanged. */
void normalizeInPlace(FeatureVector &v);

/**
 * Row-major dense matrix: the one point-set type the analyzer's
 * clustering and PCA take (one row per observation). Minimal: only
 * what covariance/PCA and the tests need.
 */
class Matrix
{
  public:
    /** An empty 0 x 0 matrix (resize before use). */
    Matrix() : num_rows(0), num_cols(0) {}

    /** A rows x cols zero matrix. */
    Matrix(std::size_t rows, std::size_t cols);

    /** Element access. */
    double &at(std::size_t r, std::size_t c);
    double at(std::size_t r, std::size_t c) const;

    std::size_t rows() const { return num_rows; }
    std::size_t cols() const { return num_cols; }

    /**
     * Raw pointer to row @p r's contiguous cells — the hot-path
     * access the kernels above consume. Bounds-checked.
     */
    double *rowPtr(std::size_t r);
    const double *rowPtr(std::size_t r) const;

    /** Reshape to rows x cols, zero-filled (storage is reused). */
    void resize(std::size_t rows, std::size_t cols);

    /** Copy row @p r out into a FeatureVector. */
    FeatureVector row(std::size_t r) const;

    /**
     * Matrix-vector product; v.size() must equal cols(). Four rows
     * per pass, each with its own sum: out[r] == dotN(row r, v).
     */
    FeatureVector multiply(const FeatureVector &v) const;

    /**
     * Population covariance of a row-major observation matrix
     * (rows are observations). The mean is row-order adds and one
     * final scale by 1/rows; it is written to @p mean_out when
     * given. Cell (i, j) is then, bit for bit, +0.0 plus
     * (x[r][i] - mean[i]) * (x[r][j] - mean[j]) for r in row
     * order, scaled by 1/rows, and mirrored from the upper
     * triangle. The data is centered once and the upper triangle
     * filled in 4 x 4 tiles over row chunks that stay in cache;
     * each tile's sums carry from one chunk to the next. An empty
     * matrix is fatal.
     */
    static Matrix covariance(const Matrix &data,
                             FeatureVector *mean_out = nullptr);

  private:
    std::size_t num_rows;
    std::size_t num_cols;
    std::vector<double> cells;
};

} // namespace tpupoint

#endif // TPUPOINT_CORE_MATH_HH

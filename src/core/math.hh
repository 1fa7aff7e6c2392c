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
 * Raw-pointer kernels over contiguous doubles. These are the inner
 * loops of the clustering/PCA hot paths, written over restrict-free
 * pointers with a fixed single-accumulator summation order: unrolling
 * computes several elements' terms per trip but always folds them
 * into one accumulator in index order, so results are bit-identical
 * to the naive loop (no reassociation) while the element-wise work
 * auto-vectorizes.
 */
double dotN(const double *a, const double *b, std::size_t n);
double squaredDistanceN(const double *a, const double *b,
                        std::size_t n);
void addN(double *a, const double *b, std::size_t n);
void scaleN(double *v, double s, std::size_t n);

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

    /** Matrix-vector product; v.size() must equal cols(). */
    FeatureVector multiply(const FeatureVector &v) const;

    /**
     * Covariance of a row-major observation matrix (rows are
     * observations): the mean by row-order adds and one final
     * scale, then per-row upper-triangle updates. An empty
     * matrix is fatal.
     */
    static Matrix covariance(const Matrix &data);

  private:
    std::size_t num_rows;
    std::size_t num_cols;
    std::vector<double> cells;
};

} // namespace tpupoint

#endif // TPUPOINT_CORE_MATH_HH

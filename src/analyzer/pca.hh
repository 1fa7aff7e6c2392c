/**
 * @file
 * Principal component analysis for dimensional reduction of step
 * feature vectors (Section IV-A uses PCA to keep at most 100
 * distinct dimensions). Components are extracted by power iteration
 * with deflation — no external linear-algebra dependency.
 */

#ifndef TPUPOINT_ANALYZER_PCA_HH
#define TPUPOINT_ANALYZER_PCA_HH

#include <cstddef>
#include <vector>

#include "core/math.hh"
#include "core/rng.hh"

namespace tpupoint {

/** The result of fitting PCA to a data set. */
struct PcaModel
{
    FeatureVector mean;                   ///< Data mean.
    std::vector<FeatureVector> components; ///< Unit-norm, ordered.
    std::vector<double> eigenvalues;       ///< Explained variance.

    /**
     * Project every row of a row-major observation matrix into
     * component space: contiguous rows in, contiguous rows out.
     * Cell (r, c) is dotN(component c, row r - mean) bit for bit;
     * two rows and four components run per pass.
     */
    Matrix projectAll(const Matrix &points) const;
};

/**
 * Fit PCA and keep the top @p num_components components.
 *
 * @param points Observations, one per row; an empty matrix is
 *     fatal.
 * @param num_components Components to extract (capped at the data
 *     dimension).
 * @param rng Seed source for power-iteration start vectors.
 * @param iterations Power iterations per component.
 */
PcaModel fitPca(const Matrix &points, std::size_t num_components,
                Rng &rng, int iterations = 60);

} // namespace tpupoint

#endif // TPUPOINT_ANALYZER_PCA_HH

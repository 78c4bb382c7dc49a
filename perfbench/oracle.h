// Independent answer oracle for the benchmark program.
//
// Everything here recomputes from raw inputs with plain loops: column
// statistics, the reduced-space projection (from the fitted model's mean,
// scale and eigenvectors plus the pipeline's retained components), the
// studentized full space and brute-force k-NN. It shares no code path with
// the library's projection, distance kernels or top-k selection, so a fault
// there shows up as a mismatch here.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "index/knn.h"
#include "linalg/matrix.h"
#include "reduction/pipeline.h"

namespace perfbench {

/// Row-major dense rows owned by the oracle.
struct Rows {
  size_t n = 0;
  size_t d = 0;
  std::vector<double> v;
  const double* row(size_t i) const { return v.data() + i * d; }
};

/// Copies a library matrix into oracle rows.
Rows FromMatrix(const cohere::Matrix& m);

/// Checks the fitted PCA model against the data it was fitted on: the
/// eigenvectors are orthonormal, and the model's mean and scale equal the
/// column means and population standard deviations computed here (scale 1
/// for a constant column). Returns an empty string when everything holds,
/// else a description of the first mismatch.
std::string CheckModel(const cohere::ReductionPipeline& pipeline,
                       const Rows& data);

/// Checks that the retained components are a prefix of the components
/// ordered by decreasing coherence probability (ties by eigenvalue rank),
/// PAPER.md §1.2.
std::string CheckCoherencePrefix(const cohere::ReductionPipeline& pipeline);

/// Projects rows into the reduced space with the oracle's own loop.
Rows Project(const cohere::ReductionPipeline& pipeline, const Rows& data);

/// Studentizes rows by the given column means and standard deviations; a
/// column with zero deviation is only centred, as in the library's z-score
/// transform.
Rows Studentize(const Rows& data, const std::vector<double>& mean,
                const std::vector<double>& stddev);

/// Column means and population standard deviations of `data`.
void ColumnStats(const Rows& data, std::vector<double>* mean,
                 std::vector<double>* stddev);

/// Euclidean distance between two rows of length d.
double Distance(const double* a, const double* b, size_t d);

/// Compares an answer against a brute-force scan of the first `limit` rows
/// of `corpus` for `query`. Ids must be distinct and in range, every
/// reported distance must equal the oracle's distance to that id within a
/// relative tolerance, distances must be non-decreasing, and the rank-wise
/// distances must equal the brute-force k best; a different id at a rank
/// is accepted only when its distance ties the brute-force one within the
/// tolerance. Returns an empty string on success.
std::string CheckExactKnn(const std::vector<cohere::Neighbor>& answer,
                          const Rows& corpus, size_t limit,
                          const double* query, size_t k);

/// Checks a full-space re-ranked answer (local engine, several probes):
/// ids distinct and in range, distances non-decreasing and equal to the
/// oracle's studentized full-space distances. It does not require
/// exactness: the probed localities only generate candidates.
std::string CheckRerankedAnswer(const std::vector<cohere::Neighbor>& answer,
                                const Rows& studentized_corpus,
                                const double* studentized_query, size_t k);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_

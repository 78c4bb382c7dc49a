#include "cluster/projected.h"

#include <algorithm>
#include <limits>

#include "cluster/kmeans.h"
#include "common/check.h"
#include "linalg/symmetric_eigen.h"
#include "stats/covariance.h"

namespace cohere {
namespace {

// Centroid of the listed rows.
Vector MemberCentroid(const Matrix& data, const std::vector<size_t>& members) {
  const size_t d = data.cols();
  Vector centroid(d);
  for (size_t member : members) {
    const double* row = data.RowPtr(member);
    for (size_t j = 0; j < d; ++j) centroid[j] += row[j];
  }
  if (!members.empty()) centroid /= static_cast<double>(members.size());
  return centroid;
}

// Least-spread eigenbasis (d x l) of the listed rows plus the projected
// energy (sum of the l smallest eigenvalues = mean squared projected
// deviation from the centroid). Returns false when the cluster is too small
// to define a covariance; `*basis` is left untouched and `*energy` set from
// the existing basis.
bool FitLeastSpreadBasis(const Matrix& data,
                         const std::vector<size_t>& members, size_t l,
                         Matrix* basis, double* energy) {
  if (members.size() < 2) {
    if (energy != nullptr) *energy = 0.0;
    return false;
  }
  Matrix member_rows = data.SelectRows(members);
  Result<EigenDecomposition> eig =
      SymmetricEigen(CovarianceMatrix(member_rows));
  if (!eig.ok()) return false;
  const size_t d = data.cols();
  std::vector<size_t> least(l);
  double spread = 0.0;
  for (size_t i = 0; i < l; ++i) {
    least[i] = d - l + i;
    spread += std::max(eig->eigenvalues[d - l + i], 0.0);
  }
  *basis = eig->eigenvectors.SelectCols(least);
  if (energy != nullptr) *energy = spread;
  return true;
}

// Projected energy per member of a (hypothetically merged) member list.
double MergedEnergy(const Matrix& data, const std::vector<size_t>& members,
                    size_t l) {
  Matrix basis;
  double energy = std::numeric_limits<double>::infinity();
  if (!FitLeastSpreadBasis(data, members, l, &basis, &energy)) {
    return 0.0;  // tiny unions are trivially tight
  }
  return energy;
}

// Reassigns every point to its nearest cluster by projected distance and
// rebuilds member lists. Returns whether any assignment changed; accumulates
// the mean projected energy into `*mean_energy`.
bool AssignAll(const Matrix& data, std::vector<ProjectedCluster>* clusters,
               std::vector<size_t>* assignment, double* mean_energy) {
  const size_t n = data.rows();
  const size_t d = data.cols();
  bool changed = false;
  double energy = 0.0;
  for (ProjectedCluster& cluster : *clusters) cluster.members.clear();
  Vector point(d);
  for (size_t i = 0; i < n; ++i) {
    const double* src = data.RowPtr(i);
    std::copy(src, src + d, point.data());
    const size_t best = NearestProjectedCluster(*clusters, point);
    energy += ProjectedSquaredDistance(point, (*clusters)[best]);
    if (best != (*assignment)[i]) {
      (*assignment)[i] = best;
      changed = true;
    }
    (*clusters)[best].members.push_back(i);
  }
  *mean_energy = energy / static_cast<double>(n);
  return changed;
}

// Recomputes centroid and basis of every non-empty cluster.
void RefitAll(const Matrix& data, size_t l,
              std::vector<ProjectedCluster>* clusters) {
  for (ProjectedCluster& cluster : *clusters) {
    if (cluster.members.empty()) continue;
    cluster.centroid = MemberCentroid(data, cluster.members);
    FitLeastSpreadBasis(data, cluster.members, l, &cluster.basis, nullptr);
  }
}

// Drops empty clusters, compacting assignments.
void DropEmpty(std::vector<ProjectedCluster>* clusters,
               std::vector<size_t>* assignment) {
  std::vector<size_t> remap(clusters->size(), 0);
  std::vector<ProjectedCluster> kept;
  for (size_t c = 0; c < clusters->size(); ++c) {
    if (!(*clusters)[c].members.empty()) {
      remap[c] = kept.size();
      kept.push_back(std::move((*clusters)[c]));
    }
  }
  for (size_t& a : *assignment) a = remap[a];
  *clusters = std::move(kept);
}

}  // namespace

// Not a point-to-point distance (it projects the centered point onto the
// cluster's subspace basis first), so it cannot dedupe onto the shared
// simd::L2Squared entry point the way cluster/kmeans.cc did.
double ProjectedSquaredDistance(const Vector& point, const Vector& centroid,
                                const Matrix& basis) {
  COHERE_CHECK_EQ(point.size(), centroid.size());
  COHERE_CHECK_EQ(basis.rows(), point.size());
  double sum = 0.0;
  for (size_t c = 0; c < basis.cols(); ++c) {
    double coord = 0.0;
    for (size_t j = 0; j < point.size(); ++j) {
      coord += (point[j] - centroid[j]) * basis.At(j, c);
    }
    sum += coord * coord;
  }
  return sum;
}

double ProjectedSquaredDistance(const Vector& point,
                                const ProjectedCluster& cluster) {
  return ProjectedSquaredDistance(point, cluster.centroid, cluster.basis);
}

size_t NearestProjectedCluster(
    const std::vector<ProjectedCluster>& clusters, const Vector& point) {
  COHERE_CHECK(!clusters.empty());
  size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < clusters.size(); ++c) {
    const double dist = ProjectedSquaredDistance(point, clusters[c]);
    if (dist < best_dist) {
      best_dist = dist;
      best = c;
    }
  }
  return best;
}

Result<ProjectedClusteringResult> RunProjectedClustering(
    const Matrix& data, const ProjectedClusteringOptions& options) {
  const size_t n = data.rows();
  const size_t d = data.cols();
  const size_t k = options.num_clusters;
  const size_t l = options.subspace_dim;
  if (k == 0) return Status::InvalidArgument("num_clusters must be positive");
  if (l == 0 || l > d) {
    return Status::InvalidArgument("subspace_dim must be in [1, d]");
  }
  if (n < k) return Status::InvalidArgument("fewer rows than clusters");

  // ORCLUS-style over-seeding: start with k0 > k localities found by plain
  // k-means, learn their subspaces, then merge down to k by the pair whose
  // union stays tightest in its own least-spread subspace. Over-seeding is
  // what separates populations whose subspaces cross: no single k-means
  // split can, but some of the k0 seeds land inside each population.
  const size_t k0 = std::min(n, std::max(k * 3, k + 2));
  KMeansOptions seed_options;
  seed_options.num_clusters = k0;
  seed_options.max_iterations = 5;
  seed_options.num_restarts = 2;
  seed_options.seed = options.seed;
  Result<KMeansResult> seed = RunKMeans(data, seed_options);
  if (!seed.ok()) return seed.status();

  ProjectedClusteringResult result;
  result.assignment = seed->assignment;
  result.clusters.resize(k0);
  for (size_t c = 0; c < k0; ++c) {
    result.clusters[c].centroid = seed->centroids.Row(c);
    result.clusters[c].basis = Matrix(d, l);
    for (size_t i = 0; i < l; ++i) result.clusters[c].basis.At(i, i) = 1.0;
  }
  for (size_t i = 0; i < n; ++i) {
    result.clusters[result.assignment[i]].members.push_back(i);
  }
  RefitAll(data, l, &result.clusters);

  // Two stabilization passes at the over-seeded granularity.
  for (int pass = 0; pass < 2; ++pass) {
    AssignAll(data, &result.clusters, &result.assignment, &result.energy);
    DropEmpty(&result.clusters, &result.assignment);
    RefitAll(data, l, &result.clusters);
  }

  // Merge phase.
  while (result.clusters.size() > k) {
    size_t best_a = 0;
    size_t best_b = 1;
    double best_energy = std::numeric_limits<double>::infinity();
    for (size_t a = 0; a < result.clusters.size(); ++a) {
      for (size_t b = a + 1; b < result.clusters.size(); ++b) {
        std::vector<size_t> merged = result.clusters[a].members;
        merged.insert(merged.end(), result.clusters[b].members.begin(),
                      result.clusters[b].members.end());
        const double energy = MergedEnergy(data, merged, l);
        if (energy < best_energy) {
          best_energy = energy;
          best_a = a;
          best_b = b;
        }
      }
    }
    {
      ProjectedCluster& into = result.clusters[best_a];
      ProjectedCluster& from = result.clusters[best_b];
      for (size_t member : from.members) result.assignment[member] = best_a;
      into.members.insert(into.members.end(), from.members.begin(),
                          from.members.end());
      from.members.clear();
    }
    DropEmpty(&result.clusters, &result.assignment);
    RefitAll(data, l, &result.clusters);
    // One re-assignment pass after each merge keeps boundaries crisp.
    AssignAll(data, &result.clusters, &result.assignment, &result.energy);
    DropEmpty(&result.clusters, &result.assignment);
    RefitAll(data, l, &result.clusters);
  }

  // Final refinement at the target granularity.
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    const bool changed =
        AssignAll(data, &result.clusters, &result.assignment, &result.energy);
    // Re-seed any emptied cluster with the globally worst-fitting point so
    // exactly k clusters survive.
    for (size_t c = 0; c < result.clusters.size(); ++c) {
      ProjectedCluster& cluster = result.clusters[c];
      if (!cluster.members.empty()) continue;
      size_t farthest = 0;
      double farthest_dist = -1.0;
      for (size_t i = 0; i < n; ++i) {
        if (result.clusters[result.assignment[i]].members.size() <= 1) {
          continue;
        }
        const double dist = ProjectedSquaredDistance(
            data.Row(i), result.clusters[result.assignment[i]]);
        if (dist > farthest_dist) {
          farthest_dist = dist;
          farthest = i;
        }
      }
      std::vector<size_t>& old_members =
          result.clusters[result.assignment[farthest]].members;
      old_members.erase(
          std::find(old_members.begin(), old_members.end(), farthest));
      result.assignment[farthest] = c;
      cluster.members.assign(1, farthest);
      cluster.centroid = data.Row(farthest);
    }
    RefitAll(data, l, &result.clusters);
    if (!changed) break;
  }
  return result;
}

}  // namespace cohere

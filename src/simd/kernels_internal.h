#ifndef COHERE_SIMD_KERNELS_INTERNAL_H_
#define COHERE_SIMD_KERNELS_INTERNAL_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

// Scalar per-row reference loops shared by every kernel translation unit.
//
// These are the semantic oracle: they repeat the historical Metric loops
// operation for operation (same subtraction order, same sequential
// accumulation, std::max / std::fabs semantics), and the SIMD row-group
// implementations must match them bitwise lane by lane. They are `static`
// so each per-level TU compiles its own copy — the arithmetic is identical
// under every -m flag used here because nothing below is reassociable and
// the build never enables FP contraction for these TUs.

namespace cohere {
namespace simd {
namespace internal {

static inline double L2Row(const double* q, const double* row, size_t d) {
  double sum = 0.0;
  for (size_t j = 0; j < d; ++j) {
    const double t = q[j] - row[j];
    sum += t * t;
  }
  return sum;
}

static inline double L1Row(const double* q, const double* row, size_t d) {
  double sum = 0.0;
  for (size_t j = 0; j < d; ++j) sum += std::fabs(q[j] - row[j]);
  return sum;
}

static inline double LinfRow(const double* q, const double* row, size_t d) {
  double best = 0.0;
  for (size_t j = 0; j < d; ++j) {
    best = std::max(best, std::fabs(q[j] - row[j]));
  }
  return best;
}

static inline double CosineRow(const double* q, const double* row, size_t d) {
  double dot = 0.0;
  double na = 0.0;
  double nb = 0.0;
  for (size_t j = 0; j < d; ++j) {
    dot += q[j] * row[j];
    na += q[j] * q[j];
    nb += row[j] * row[j];
  }
  if (na == 0.0 && nb == 0.0) return 0.0;
  if (na == 0.0 || nb == 0.0) return 1.0;
  const double sim = dot / std::sqrt(na * nb);
  return 1.0 - std::clamp(sim, -1.0, 1.0);
}

/// Finishing step shared with the vectorized cosine kernel: applies the
/// zero-vector rules and the clamp to per-row (dot, nb) accumulators.
static inline double CosineFinish(double dot, double na, double nb) {
  if (na == 0.0 && nb == 0.0) return 0.0;
  if (na == 0.0 || nb == 0.0) return 1.0;
  const double sim = dot / std::sqrt(na * nb);
  return 1.0 - std::clamp(sim, -1.0, 1.0);
}

static inline double FractionalRow(const double* q, const double* row,
                                   size_t d, double p) {
  double sum = 0.0;
  for (size_t j = 0; j < d; ++j) {
    sum += std::pow(std::fabs(q[j] - row[j]), p);
  }
  return sum;
}

static inline size_t FirstAtMost(const double* v, size_t n, double bound) {
  size_t r = 0;
  while (r < n && !(v[r] <= bound)) ++r;
  return r;
}

// VA-file per-row bound loops, one per decomposable metric kind; these
// mirror the historical VaFileIndex phase-1 loop exactly.

static inline void VaBoundsRowL2(const double* q, const uint8_t* code,
                                 size_t d, const double* boundaries,
                                 size_t bstride, double* lb_out,
                                 double* ub_out) {
  double lb = 0.0;
  double ub = 0.0;
  for (size_t j = 0; j < d; ++j) {
    const double* b = boundaries + j * bstride;
    const double lo = b[code[j]];
    const double hi = b[code[j] + 1];
    const double qj = q[j];
    double lb_j = 0.0;
    if (qj < lo) {
      lb_j = lo - qj;
    } else if (qj > hi) {
      lb_j = qj - hi;
    }
    const double ub_j = std::max(std::fabs(qj - lo), std::fabs(qj - hi));
    lb += lb_j * lb_j;
    ub += ub_j * ub_j;
  }
  *lb_out = lb;
  *ub_out = ub;
}

static inline void VaBoundsRowL1(const double* q, const uint8_t* code,
                                 size_t d, const double* boundaries,
                                 size_t bstride, double* lb_out,
                                 double* ub_out) {
  double lb = 0.0;
  double ub = 0.0;
  for (size_t j = 0; j < d; ++j) {
    const double* b = boundaries + j * bstride;
    const double lo = b[code[j]];
    const double hi = b[code[j] + 1];
    const double qj = q[j];
    double lb_j = 0.0;
    if (qj < lo) {
      lb_j = lo - qj;
    } else if (qj > hi) {
      lb_j = qj - hi;
    }
    const double ub_j = std::max(std::fabs(qj - lo), std::fabs(qj - hi));
    lb += lb_j;
    ub += ub_j;
  }
  *lb_out = lb;
  *ub_out = ub;
}

static inline void VaBoundsRowLinf(const double* q, const uint8_t* code,
                                   size_t d, const double* boundaries,
                                   size_t bstride, double* lb_out,
                                   double* ub_out) {
  double lb = 0.0;
  double ub = 0.0;
  for (size_t j = 0; j < d; ++j) {
    const double* b = boundaries + j * bstride;
    const double lo = b[code[j]];
    const double hi = b[code[j] + 1];
    const double qj = q[j];
    double lb_j = 0.0;
    if (qj < lo) {
      lb_j = lo - qj;
    } else if (qj > hi) {
      lb_j = qj - hi;
    }
    const double ub_j = std::max(std::fabs(qj - lo), std::fabs(qj - hi));
    lb = std::max(lb, lb_j);
    ub = std::max(ub, ub_j);
  }
  *lb_out = lb;
  *ub_out = ub;
}

}  // namespace internal
}  // namespace simd
}  // namespace cohere

#endif  // COHERE_SIMD_KERNELS_INTERNAL_H_

#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <unordered_set>

namespace perfbench {
namespace {

// Relative tolerance for recomputed floating-point values: the oracle sums
// in a different order than the library, so equality is only up to
// rounding, never bitwise.
constexpr double kRelTol = 1e-9;

bool Close(double a, double b, double scale) {
  return std::fabs(a - b) <= kRelTol * std::max({1.0, std::fabs(scale)});
}

template <typename... Args>
std::string Format(const char* fmt, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

}  // namespace

Rows FromMatrix(const cohere::Matrix& m) {
  Rows out;
  out.n = m.rows();
  out.d = m.cols();
  out.v.assign(m.data(), m.data() + out.n * out.d);
  return out;
}

void ColumnStats(const Rows& data, std::vector<double>* mean,
                 std::vector<double>* stddev) {
  mean->assign(data.d, 0.0);
  stddev->assign(data.d, 0.0);
  for (size_t i = 0; i < data.n; ++i) {
    const double* r = data.row(i);
    for (size_t j = 0; j < data.d; ++j) (*mean)[j] += r[j];
  }
  for (double& m : *mean) m /= static_cast<double>(data.n);
  for (size_t i = 0; i < data.n; ++i) {
    const double* r = data.row(i);
    for (size_t j = 0; j < data.d; ++j) {
      const double dev = r[j] - (*mean)[j];
      (*stddev)[j] += dev * dev;
    }
  }
  for (double& s : *stddev) s = std::sqrt(s / static_cast<double>(data.n));
}

std::string CheckModel(const cohere::ReductionPipeline& pipeline,
                       const Rows& data) {
  const cohere::PcaModel& model = pipeline.model();
  const cohere::Matrix& e = model.eigenvectors();
  const size_t d = data.d;
  if (model.dims() != d || e.rows() != d || e.cols() != d) {
    return "model dimensions do not match the data";
  }
  for (size_t a = 0; a < d; ++a) {
    for (size_t b = a; b < d; ++b) {
      double dot = 0.0;
      for (size_t j = 0; j < d; ++j) dot += e.At(j, a) * e.At(j, b);
      const double want = a == b ? 1.0 : 0.0;
      if (std::fabs(dot - want) > 1e-8) {
        return Format("eigenvectors not orthonormal: <e_%zu, e_%zu> = %.17g",
                      a, b, dot);
      }
    }
  }
  std::vector<double> mean;
  std::vector<double> stddev;
  ColumnStats(data, &mean, &stddev);
  for (size_t j = 0; j < d; ++j) {
    if (!Close(model.mean()[j], mean[j], mean[j])) {
      return Format("model mean %.17g != column mean %.17g (column %zu)",
                    model.mean()[j], mean[j], j);
    }
    const double want_scale = stddev[j] > 0.0 ? stddev[j] : 1.0;
    if (!Close(model.scale()[j], want_scale, want_scale)) {
      return Format("model scale %.17g != column std dev %.17g (column %zu)",
                    model.scale()[j], want_scale, j);
    }
  }
  return "";
}

std::string CheckCoherencePrefix(const cohere::ReductionPipeline& pipeline) {
  const cohere::Vector& p = pipeline.coherence().probability;
  std::vector<size_t> order(p.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&p](size_t a, size_t b) {
    return p[a] != p[b] ? p[a] > p[b] : a < b;
  });
  const std::vector<size_t>& kept = pipeline.components();
  if (kept.empty() || kept.size() > order.size()) {
    return "retained component count out of range";
  }
  for (size_t i = 0; i < kept.size(); ++i) {
    if (kept[i] != order[i]) {
      return Format("component %zu at rank %zu is not the coherence-order "
                    "prefix (%zu expected)", kept[i], i, order[i]);
    }
  }
  return "";
}

Rows Project(const cohere::ReductionPipeline& pipeline, const Rows& data) {
  const cohere::PcaModel& model = pipeline.model();
  const std::vector<size_t>& comps = pipeline.components();
  Rows out;
  out.n = data.n;
  out.d = comps.size();
  out.v.assign(out.n * out.d, 0.0);
  std::vector<double> z(data.d);
  for (size_t i = 0; i < data.n; ++i) {
    const double* r = data.row(i);
    for (size_t j = 0; j < data.d; ++j) {
      z[j] = (r[j] - model.mean()[j]) / model.scale()[j];
    }
    for (size_t c = 0; c < comps.size(); ++c) {
      double dot = 0.0;
      for (size_t j = 0; j < data.d; ++j) {
        dot += z[j] * model.eigenvectors().At(j, comps[c]);
      }
      out.v[i * out.d + c] = dot;
    }
  }
  return out;
}

Rows Studentize(const Rows& data, const std::vector<double>& mean,
                const std::vector<double>& stddev) {
  Rows out = data;
  for (size_t i = 0; i < out.n; ++i) {
    double* r = out.v.data() + i * out.d;
    for (size_t j = 0; j < out.d; ++j) {
      r[j] = (r[j] - mean[j]) / (stddev[j] > 0.0 ? stddev[j] : 1.0);
    }
  }
  return out;
}

double Distance(const double* a, const double* b, size_t d) {
  double s = 0.0;
  for (size_t j = 0; j < d; ++j) {
    const double t = a[j] - b[j];
    s += t * t;
  }
  return std::sqrt(s);
}

namespace {

// Shared shape checks: size, distinct in-range ids, non-decreasing
// distances, and each distance equal to the oracle's own.
std::string CheckShape(const std::vector<cohere::Neighbor>& answer,
                       const Rows& corpus, size_t limit, const double* query,
                       size_t k) {
  if (answer.size() != std::min(k, limit)) {
    return Format("answer has %zu neighbours, want %zu", answer.size(),
                  std::min(k, limit));
  }
  std::unordered_set<size_t> seen;
  for (size_t r = 0; r < answer.size(); ++r) {
    const cohere::Neighbor& nb = answer[r];
    if (nb.index >= limit) {
      return Format("id %zu out of range %zu (rank %zu)", nb.index, limit, r);
    }
    if (!seen.insert(nb.index).second) {
      return Format("id %zu repeated (rank %zu)", nb.index, r);
    }
    if (r > 0 && nb.distance < answer[r - 1].distance) {
      return Format("distances decrease: %.17g after %.17g (rank %zu)",
                    nb.distance, answer[r - 1].distance, r);
    }
    const double own = Distance(query, corpus.row(nb.index), corpus.d);
    if (!Close(nb.distance, own, own)) {
      return Format("reported distance %.17g != oracle distance %.17g "
                    "(rank %zu)", nb.distance, own, r);
    }
  }
  return "";
}

}  // namespace

std::string CheckExactKnn(const std::vector<cohere::Neighbor>& answer,
                          const Rows& corpus, size_t limit,
                          const double* query, size_t k) {
  std::string shape = CheckShape(answer, corpus, limit, query, k);
  if (!shape.empty()) return shape;
  // Brute-force k best by (distance, id), kept sorted.
  std::vector<std::pair<double, size_t>> best;
  best.reserve(k + 1);
  for (size_t i = 0; i < limit; ++i) {
    const double dist = Distance(query, corpus.row(i), corpus.d);
    if (best.size() == k && dist >= best.back().first) continue;
    auto pos = std::upper_bound(best.begin(), best.end(),
                                std::make_pair(dist, i));
    best.insert(pos, {dist, i});
    if (best.size() > k) best.pop_back();
  }
  for (size_t r = 0; r < answer.size(); ++r) {
    if (!Close(answer[r].distance, best[r].first, best[r].first)) {
      return Format("rank distance %.17g != brute-force %.17g (rank %zu)",
                    answer[r].distance, best[r].first, r);
    }
    // A different id at this rank is a tie: its distance already matched
    // the brute-force rank distance above.
  }
  return "";
}

std::string CheckRerankedAnswer(const std::vector<cohere::Neighbor>& answer,
                                const Rows& studentized_corpus,
                                const double* studentized_query, size_t k) {
  return CheckShape(answer, studentized_corpus, studentized_corpus.n,
                    studentized_query, k);
}

}  // namespace perfbench

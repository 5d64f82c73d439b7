#include "bench/suite/layers.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace cubetree {
namespace suite {

namespace {

uint64_t AnnotationNumber(const obs::SpanRecord& span, const char* key) {
  for (const auto& [name, value] : span.annotations) {
    if (name == key && value.is_number()) {
      return static_cast<uint64_t>(value.number());
    }
  }
  return 0;
}

bool AnnotationIs(const obs::SpanRecord& span, const char* key,
                  const char* expected) {
  for (const auto& [name, value] : span.annotations) {
    if (name == key && value.is_string()) return value.str() == expected;
  }
  return false;
}

double SumOver(const std::map<std::string, std::vector<double>>& series,
               const std::string& name) {
  auto it = series.find(name);
  if (it == series.end()) return 0.0;
  double sum = 0;
  for (double v : it->second) sum += v;
  return sum;
}

}  // namespace

void SpanFold::Add(const obs::Trace& trace) {
  const std::vector<obs::SpanRecord>& spans = trace.spans();
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int32_t parent = spans[i].parent;
    if (parent >= 0 && static_cast<size_t>(parent) < spans.size()) {
      children[static_cast<size_t>(parent)].push_back(i);
    }
  }
  std::map<std::string, std::pair<double, double>> op;  // name -> self, busy
  std::vector<std::pair<uint64_t, uint64_t>> covered;
  for (size_t i = 0; i < spans.size(); ++i) {
    const obs::SpanRecord& span = spans[i];
    if (span.end_ns < span.start_ns) continue;  // Still open: no duration.
    covered.clear();
    for (size_t c : children[i]) {
      const uint64_t lo = std::max(spans[c].start_ns, span.start_ns);
      const uint64_t hi = std::min(spans[c].end_ns, span.end_ns);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    uint64_t union_ns = 0;
    uint64_t run_lo = 0;
    uint64_t run_hi = 0;
    for (const auto& [lo, hi] : covered) {
      if (lo > run_hi) {
        union_ns += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    union_ns += run_hi - run_lo;
    const uint64_t duration = span.end_ns - span.start_ns;
    auto& [self, busy] = op[span.name];
    self += static_cast<double>(duration - union_ns);
    busy += static_cast<double>(duration);
  }
  for (const auto& [name, times] : op) {
    self_ns[name].push_back(times.first);
    busy_ns[name].push_back(times.second);
  }
  ++ops;
}

void SpanFold::Merge(const SpanFold& other) {
  ops += other.ops;
  auto append = [](std::map<std::string, std::vector<double>>& mine,
                   const std::map<std::string, std::vector<double>>& theirs) {
    for (const auto& [name, values] : theirs) {
      std::vector<double>& into = mine[name];
      into.insert(into.end(), values.begin(), values.end());
    }
  };
  append(self_ns, other.self_ns);
  append(busy_ns, other.busy_ns);
}

double SpanFold::MeanSelfNs(const std::string& name) const {
  return ops == 0 ? 0.0 : SumOver(self_ns, name) / static_cast<double>(ops);
}

double SpanFold::MeanBusyNs(const std::string& name) const {
  return ops == 0 ? 0.0 : SumOver(busy_ns, name) / static_cast<double>(ops);
}

void QueryLayers::Add(const obs::Trace& trace) {
  spans.Add(trace);
  // The R-tree annotations are cumulative over one query's searches, so the
  // largest value of each is the query's total.
  uint64_t internal = 0;
  uint64_t leaves = 0;
  uint64_t examined = 0;
  for (const obs::SpanRecord& span : trace.spans()) {
    pages_read += span.pages_read;
    pool_hits += span.pool_hits;
    if (span.name == "search") {
      rows += AnnotationNumber(span, "rows");
      reaggregated += AnnotationIs(span, "plan", "reaggregate") ? 1 : 0;
    } else if (span.name == "rtree.descent") {
      internal = std::max(internal, AnnotationNumber(span, "internal_pages"));
      leaves = std::max(leaves, AnnotationNumber(span, "candidate_leaves"));
    } else if (span.name == "rtree.scan") {
      examined = std::max(examined, AnnotationNumber(span, "points_examined"));
    }
  }
  internal_pages += internal;
  candidate_leaves += leaves;
  points_examined += examined;
}

void QueryLayers::Merge(const QueryLayers& other) {
  spans.Merge(other.spans);
  reaggregated += other.reaggregated;
  rows += other.rows;
  points_examined += other.points_examined;
  internal_pages += other.internal_pages;
  candidate_leaves += other.candidate_leaves;
  pages_read += other.pages_read;
  pool_hits += other.pool_hits;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  const size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

}  // namespace suite
}  // namespace cubetree

#ifndef CUBETREE_BENCH_SUITE_LAYERS_H_
#define CUBETREE_BENCH_SUITE_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace cubetree {
namespace suite {

/// Span times folded from the traces the program publishes, by span name.
/// A span's self time is its duration minus the part of its interval that
/// its child spans cover; its busy time is the whole duration. Spans of one
/// name within one operation add up (parallel workers included).
struct SpanFold {
  uint64_t ops = 0;
  /// Span name -> one value (ns) per folded operation that had the span.
  std::map<std::string, std::vector<double>> self_ns;
  std::map<std::string, std::vector<double>> busy_ns;

  void Add(const obs::Trace& trace);
  void Merge(const SpanFold& other);
  /// Mean over every folded operation, counting 0 where the span was absent.
  double MeanSelfNs(const std::string& name) const;
  double MeanBusyNs(const std::string& name) const;
};

/// Query traces: span times plus the work counts the spans carry.
struct QueryLayers {
  SpanFold spans;
  uint64_t reaggregated = 0;  // Queries whose search plan was "reaggregate".
  uint64_t rows = 0;
  uint64_t points_examined = 0;
  uint64_t internal_pages = 0;
  uint64_t candidate_leaves = 0;
  uint64_t pages_read = 0;  // Physical page reads attributed to the query.
  uint64_t pool_hits = 0;

  void Add(const obs::Trace& trace);
  void Merge(const QueryLayers& other);
};

double Mean(const std::vector<double>& values);
/// Nearest-rank percentile, p in [0, 100]; 0 for an empty series.
double Percentile(std::vector<double> values, double p);

}  // namespace suite
}  // namespace cubetree

#endif  // CUBETREE_BENCH_SUITE_LAYERS_H_

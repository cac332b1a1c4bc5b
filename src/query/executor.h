#ifndef Q_QUERY_EXECUTOR_H_
#define Q_QUERY_EXECUTOR_H_

#include <cstddef>
#include <vector>

#include "query/conjunctive_query.h"
#include "relational/catalog.h"
#include "util/result.h"

namespace q::query {

struct ExecutorOptions {
  // Hard cap on intermediate and output cardinality per query; guards
  // degenerate cartesian products.
  std::size_t max_rows = 100000;
};

// Evaluates conjunctive queries against the catalog from the tables'
// per-column indexes of canonical value text (relational::ColumnIndex),
// which are built once per table and column and shared by every query.
// A selection reads its rows from an index bucket; a selection on text ""
// also matches null cells. Joins run in join-graph order, a breadth-first
// walk from the first atom that takes the first connecting join in list
// order; each probes the new atom's column index with the joined side's
// cell text, so int64 7, string "7" and double 7.0 join, and a null never
// does. A cartesian product is taken only when a tree legitimately has no
// join between two atoms, and joins left over close cycles as residual
// filters. Rows come out in ascending row-id order along the join order.
// Execute is safe to call from many threads at once.
class Executor {
 public:
  explicit Executor(const relational::Catalog* catalog,
                    ExecutorOptions options = ExecutorOptions())
      : catalog_(catalog), options_(options) {}

  // Rows in the query's own select-list schema. InvalidArgument for a
  // query with no atoms; OutOfRange when a join or cartesian step would
  // exceed max_rows.
  util::Result<std::vector<relational::Row>> Execute(
      const ConjunctiveQuery& query) const;

 private:
  const relational::Catalog* catalog_;
  ExecutorOptions options_;
};

}  // namespace q::query

#endif  // Q_QUERY_EXECUTOR_H_

#ifndef Q_RELATIONAL_TABLE_H_
#define Q_RELATIONAL_TABLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "relational/schema.h"
#include "relational/value.h"
#include "util/result.h"
#include "util/status.h"

namespace q::relational {

using Row = std::vector<Value>;

// A contiguous run of ascending row indices.
struct RowSpan {
  const std::uint32_t* first = nullptr;
  const std::uint32_t* last = nullptr;

  const std::uint32_t* begin() const { return first; }
  const std::uint32_t* end() const { return last; }
  std::size_t size() const { return static_cast<std::size_t>(last - first); }
};

// Index of one column by canonical value text (Value::CanonicalText): each
// distinct text of a non-null cell maps to its rows in ascending order, and
// null rows are kept apart. Immutable once built. Distinct texts live in one
// arena behind an open-addressing table; the rows of all texts share one
// array, grouped by text.
class ColumnIndex {
 public:
  ColumnIndex(const std::vector<Row>& rows, std::size_t col);

  // Rows whose non-null cell renders as `text`; empty if there are none.
  RowSpan Find(std::string_view text) const;
  // Rows whose cell is null.
  RowSpan null_rows() const {
    return {nulls_.data(), nulls_.data() + nulls_.size()};
  }
  // Bytes held, heap included.
  std::size_t bytes() const;

 private:
  struct Key {
    std::size_t hash;
    std::uint32_t text_begin;
    std::uint32_t text_size;
    std::uint32_t rows_begin;
    std::uint32_t rows_end;
  };

  std::string_view TextOf(const Key& key) const {
    return std::string_view(text_.data() + key.text_begin, key.text_size);
  }
  // The slot holding `text`, or the empty slot where it would go.
  std::size_t Slot(std::string_view text, std::size_t hash) const;
  // Doubles the slot table and re-places every key.
  void Grow();

  std::string text_;                  // distinct texts, concatenated
  std::vector<Key> keys_;             // one per distinct text
  std::vector<std::uint32_t> slots_;  // key index + 1; 0 marks an empty slot
  std::vector<std::uint32_t> rows_;   // rows grouped by key, ascending within
  std::vector<std::uint32_t> nulls_;  // rows whose cell is null, ascending
};

// In-memory row-store table. Rows are immutable once appended. Each column
// can be indexed by canonical value text; indexes are derived state, built
// on first use and never persisted.
class Table {
 public:
  explicit Table(RelationSchema schema) : schema_(std::move(schema)) {}
  ~Table();
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const RelationSchema& schema() const { return schema_; }
  // For post-construction metadata edits (e.g. declaring foreign keys).
  RelationSchema& mutable_schema() { return schema_; }
  std::size_t num_rows() const { return rows_.size(); }
  std::size_t num_columns() const { return schema_.num_attributes(); }

  // Appends after checking arity and per-column type (nulls always pass),
  // and drops every built column index. Must not run concurrently with
  // any reader of this table: `rows_` may reallocate and the indexes are
  // freed. Sources append their rows before the table is registered.
  util::Status AppendRow(Row row);

  const Row& row(std::size_t i) const { return rows_[i]; }
  const std::vector<Row>& rows() const { return rows_; }

  const Value& At(std::size_t row_index, std::size_t col_index) const {
    return rows_[row_index][col_index];
  }

  // The index of column `col_index`, built on first use. Any number of
  // threads may call this at once: the first build runs under a per-table
  // mutex and publishes the index once, and later calls read it with an
  // acquire load and no lock. Valid until the next AppendRow.
  const ColumnIndex& Index(std::size_t col_index) const;

  // Bytes held by the built column indexes; 0 until a column is indexed.
  std::size_t IndexBytes() const;

  // Distinct non-null values in a column.
  std::unordered_set<Value, ValueHash> DistinctValues(
      std::size_t col_index) const;

  // Count of distinct shared non-null values between a column of this
  // table and a column of `other`.
  std::size_t ValueOverlap(std::size_t col_index, const Table& other,
                           std::size_t other_col_index) const;

 private:
  struct ColumnIndexes;

  RelationSchema schema_;
  std::vector<Row> rows_;
  // Null until a column is first indexed; then one slot per column, each
  // published once under `index_mu_`.
  mutable std::mutex index_mu_;
  mutable std::atomic<ColumnIndexes*> indexes_{nullptr};
};

}  // namespace q::relational

#endif  // Q_RELATIONAL_TABLE_H_

#include "relational/table.h"

#include <functional>
#include <limits>
#include <utility>

namespace q::relational {

ColumnIndex::ColumnIndex(const std::vector<Row>& rows, std::size_t col)
    : slots_(16, 0) {
  constexpr std::uint32_t kNull = std::numeric_limits<std::uint32_t>::max();
  Q_CHECK(rows.size() < kNull);
  // Pass 1: intern each distinct text and count its rows.
  std::vector<std::uint32_t> key_of_row(rows.size(), kNull);
  char buf[Value::kTextBufferSize];
  for (std::uint32_t r = 0; r < rows.size(); ++r) {
    const Value& v = rows[r][col];
    if (v.is_null()) {
      nulls_.push_back(r);
      continue;
    }
    const std::string_view text = v.CanonicalText(buf);
    const std::size_t hash = std::hash<std::string_view>{}(text);
    const std::size_t slot = Slot(text, hash);
    std::uint32_t id = slots_[slot];
    if (id == 0) {
      Q_CHECK(text_.size() + text.size() < kNull);
      keys_.push_back(Key{hash, static_cast<std::uint32_t>(text_.size()),
                          static_cast<std::uint32_t>(text.size()), 0, 0});
      text_.append(text);
      id = static_cast<std::uint32_t>(keys_.size());
      slots_[slot] = id;
      // Keep the load factor at or below one half.
      if (2 * keys_.size() > slots_.size()) Grow();
    }
    key_of_row[r] = id - 1;
    ++keys_[id - 1].rows_end;  // a row count until pass 2
  }
  // Pass 2: lay the rows out grouped by key, ascending within each key.
  std::uint32_t offset = 0;
  for (Key& key : keys_) {
    key.rows_begin = offset;
    offset += key.rows_end;
    key.rows_end = key.rows_begin;
  }
  rows_.resize(offset);
  for (std::uint32_t r = 0; r < rows.size(); ++r) {
    if (key_of_row[r] != kNull) rows_[keys_[key_of_row[r]].rows_end++] = r;
  }
  text_.shrink_to_fit();
  keys_.shrink_to_fit();
  nulls_.shrink_to_fit();
}

std::size_t ColumnIndex::Slot(std::string_view text, std::size_t hash) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t slot = hash & mask;; slot = (slot + 1) & mask) {
    const std::uint32_t id = slots_[slot];
    if (id == 0) return slot;
    const Key& key = keys_[id - 1];
    if (key.hash == hash && TextOf(key) == text) return slot;
  }
}

void ColumnIndex::Grow() {
  slots_.assign(2 * slots_.size(), 0);
  const std::size_t mask = slots_.size() - 1;
  for (std::uint32_t id = 1; id <= keys_.size(); ++id) {
    std::size_t slot = keys_[id - 1].hash & mask;
    while (slots_[slot] != 0) slot = (slot + 1) & mask;
    slots_[slot] = id;
  }
}

RowSpan ColumnIndex::Find(std::string_view text) const {
  const std::uint32_t id =
      slots_[Slot(text, std::hash<std::string_view>{}(text))];
  if (id == 0) return {};
  const Key& key = keys_[id - 1];
  return {rows_.data() + key.rows_begin, rows_.data() + key.rows_end};
}

std::size_t ColumnIndex::bytes() const {
  return sizeof(*this) + text_.capacity() + keys_.capacity() * sizeof(Key) +
         (slots_.capacity() + rows_.capacity() + nulls_.capacity()) *
             sizeof(std::uint32_t);
}

struct Table::ColumnIndexes {
  explicit ColumnIndexes(std::size_t num_columns) : built(num_columns) {
    for (auto& slot : built) slot.store(nullptr, std::memory_order_relaxed);
  }
  ~ColumnIndexes() {
    for (auto& slot : built) delete slot.load(std::memory_order_relaxed);
  }

  std::vector<std::atomic<const ColumnIndex*>> built;
};

Table::~Table() { delete indexes_.load(std::memory_order_relaxed); }

const ColumnIndex& Table::Index(std::size_t col_index) const {
  if (const ColumnIndexes* set = indexes_.load(std::memory_order_acquire)) {
    const ColumnIndex* index =
        set->built[col_index].load(std::memory_order_acquire);
    if (index != nullptr) return *index;
  }
  std::lock_guard<std::mutex> lock(index_mu_);
  ColumnIndexes* set = indexes_.load(std::memory_order_relaxed);
  if (set == nullptr) {
    set = new ColumnIndexes(num_columns());
    indexes_.store(set, std::memory_order_release);
  }
  const ColumnIndex* index =
      set->built[col_index].load(std::memory_order_relaxed);
  if (index == nullptr) {
    index = new ColumnIndex(rows_, col_index);
    set->built[col_index].store(index, std::memory_order_release);
  }
  return *index;
}

std::size_t Table::IndexBytes() const {
  const ColumnIndexes* set = indexes_.load(std::memory_order_acquire);
  if (set == nullptr) return 0;
  std::size_t bytes = sizeof(ColumnIndexes) +
                      set->built.capacity() * sizeof(set->built[0]);
  for (const auto& slot : set->built) {
    const ColumnIndex* index = slot.load(std::memory_order_acquire);
    if (index != nullptr) bytes += index->bytes();
  }
  return bytes;
}

util::Status Table::AppendRow(Row row) {
  if (row.size() != schema_.num_attributes()) {
    return util::Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != schema arity " +
        std::to_string(schema_.num_attributes()) + " for relation " +
        schema_.QualifiedName());
  }
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null()) continue;
    if (row[i].type() != schema_.attributes()[i].type) {
      return util::Status::InvalidArgument(
          "type mismatch in column " + schema_.attributes()[i].name +
          " of " + schema_.QualifiedName() + ": expected " +
          std::string(ValueTypeToString(schema_.attributes()[i].type)) +
          ", got " + std::string(ValueTypeToString(row[i].type())));
    }
  }
  delete indexes_.exchange(nullptr, std::memory_order_acq_rel);
  rows_.push_back(std::move(row));
  return util::Status::OK();
}

std::unordered_set<Value, ValueHash> Table::DistinctValues(
    std::size_t col_index) const {
  std::unordered_set<Value, ValueHash> out;
  for (const Row& r : rows_) {
    if (!r[col_index].is_null()) out.insert(r[col_index]);
  }
  return out;
}

std::size_t Table::ValueOverlap(std::size_t col_index, const Table& other,
                                std::size_t other_col_index) const {
  auto mine = DistinctValues(col_index);
  std::size_t shared = 0;
  std::unordered_set<Value, ValueHash> seen;
  for (const Row& r : other.rows()) {
    const Value& v = r[other_col_index];
    if (v.is_null() || seen.count(v) > 0) continue;
    seen.insert(v);
    if (mine.count(v) > 0) ++shared;
  }
  return shared;
}

}  // namespace q::relational

#include "query/executor.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace q::query {
namespace {

using RowId = std::uint32_t;
constexpr RowId kNotBound = std::numeric_limits<RowId>::max();

struct BoundAttr {
  std::size_t atom;
  std::size_t column;
};

// One atom and the rows that survive its selections, ascending.
struct Atom {
  const relational::Table* table = nullptr;
  bool filtered = false;         // false: every row survives
  std::vector<RowId> rows;       // the survivors, when filtered
  std::vector<bool> survivor;    // `rows` by row id, when a join builds on it

  std::size_t size() const {
    return filtered ? rows.size() : table->num_rows();
  }
  RowId row(std::size_t i) const {
    return filtered ? rows[i] : static_cast<RowId>(i);
  }
};

// True when `qualified` ("source.relation") names the relation of `attr`.
bool NamesRelation(std::string_view qualified,
                   const relational::AttributeId& attr) {
  const std::size_t dot = attr.source.size();
  return qualified.size() == dot + 1 + attr.relation.size() &&
         qualified.compare(0, dot, attr.source) == 0 && qualified[dot] == '.' &&
         qualified.substr(dot + 1) == attr.relation;
}

bool SameText(const relational::Value& a, const relational::Value& b) {
  char a_buf[relational::Value::kTextBufferSize];
  char b_buf[relational::Value::kTextBufferSize];
  return a.CanonicalText(a_buf) == b.CanonicalText(b_buf);
}

}  // namespace

util::Result<std::vector<relational::Row>> Executor::Execute(
    const ConjunctiveQuery& query) const {
  if (query.atoms.empty()) {
    return util::Status::InvalidArgument("conjunctive query has no atoms");
  }
  // --- Resolve atoms ------------------------------------------------------
  const std::size_t width = query.atoms.size();
  std::vector<Atom> atoms(width);
  for (std::size_t a = 0; a < width; ++a) {
    auto table = catalog_->FindTable(query.atoms[a]);
    if (table == nullptr) {
      return util::Status::NotFound("relation " + query.atoms[a]);
    }
    atoms[a].table = table.get();
  }
  // A relation listed twice binds its attributes to its last atom.
  auto resolve = [&](const relational::AttributeId& attr)
      -> util::Result<BoundAttr> {
    std::size_t a = width;
    while (a > 0 && !NamesRelation(query.atoms[a - 1], attr)) --a;
    if (a == 0) {
      return util::Status::Internal("attribute " + attr.ToString() +
                                    " not bound to any atom");
    }
    auto col = atoms[a - 1].table->schema().AttributeIndex(attr.attribute);
    if (!col.has_value()) {
      return util::Status::NotFound("attribute " + attr.ToString());
    }
    return BoundAttr{a - 1, *col};
  };

  // --- Selections ---------------------------------------------------------
  // An atom's first predicate reads its rows from the column index, and
  // its other predicates filter them. Text "" also matches null cells,
  // which render as "".
  std::vector<std::vector<std::pair<std::size_t, std::string_view>>> preds(
      width);
  for (const SelectionPredicate& s : query.selections) {
    Q_ASSIGN_OR_RETURN(BoundAttr b, resolve(s.attr));
    preds[b.atom].emplace_back(b.column, s.value_text);
  }
  for (std::size_t a = 0; a < width; ++a) {
    if (preds[a].empty()) continue;
    Atom& atom = atoms[a];
    const relational::Table& t = *atom.table;
    const auto [col, text] = preds[a][0];
    const relational::ColumnIndex& index = t.Index(col);
    const relational::RowSpan matches = index.Find(text);
    const relational::RowSpan nulls =
        text.empty() ? index.null_rows() : relational::RowSpan{};
    atom.filtered = true;
    atom.rows.reserve(matches.size() + nulls.size());
    std::merge(matches.begin(), matches.end(), nulls.begin(), nulls.end(),
               std::back_inserter(atom.rows));
    char buf[relational::Value::kTextBufferSize];
    auto fails = [&](RowId r) {
      for (std::size_t p = 1; p < preds[a].size(); ++p) {
        const auto& [other_col, other_text] = preds[a][p];
        if (t.At(r, other_col).CanonicalText(buf) != other_text) return true;
      }
      return false;
    };
    atom.rows.erase(std::remove_if(atom.rows.begin(), atom.rows.end(), fails),
                    atom.rows.end());
  }

  // --- Join order: BFS over the join graph --------------------------------
  struct Join {
    BoundAttr left, right;
  };
  std::vector<Join> joins;
  for (const JoinCondition& j : query.joins) {
    Q_ASSIGN_OR_RETURN(BoundAttr l, resolve(j.left));
    Q_ASSIGN_OR_RETURN(BoundAttr r, resolve(j.right));
    joins.push_back(Join{l, r});
  }

  // Intermediate result: one binding of `width` row ids per tuple, flat,
  // kNotBound for atoms not yet joined. Output order is lexicographic in
  // row ids along the join order, which the index buckets' ascending rows
  // preserve.
  std::vector<RowId> current;
  std::vector<RowId> next;
  std::vector<bool> joined(width, false);
  std::vector<bool> join_used(joins.size(), false);

  current.assign(atoms[0].size() * width, kNotBound);
  for (std::size_t i = 0; i < atoms[0].size(); ++i) {
    current[i * width] = atoms[0].row(i);
  }
  joined[0] = true;
  for (std::size_t joined_count = 1; joined_count < width; ++joined_count) {
    // Find an unused join connecting the joined set to a new atom.
    std::size_t pick = joins.size();
    bool swap_sides = false;
    for (std::size_t j = 0; j < joins.size(); ++j) {
      if (join_used[j]) continue;
      bool lj = joined[joins[j].left.atom];
      bool rj = joined[joins[j].right.atom];
      if (lj != rj) {
        pick = j;
        swap_sides = rj;
        break;
      }
    }
    const std::size_t bindings = current.size() / width;
    next.clear();

    if (pick == joins.size()) {
      // No connecting join: cartesian-extend with the first unjoined atom.
      std::size_t a = 0;
      while (joined[a]) ++a;
      const Atom& atom = atoms[a];
      if (atom.size() != 0 && bindings > options_.max_rows / atom.size()) {
        return util::Status::OutOfRange(
            "result exceeds max_rows during cartesian extension");
      }
      next.reserve(bindings * atom.size() * width);
      for (std::size_t b = 0; b < bindings; ++b) {
        for (std::size_t i = 0; i < atom.size(); ++i) {
          next.insert(next.end(), current.begin() + b * width,
                      current.begin() + (b + 1) * width);
          next[next.size() - width + a] = atom.row(i);
        }
      }
      current.swap(next);
      joined[a] = true;
      continue;
    }

    const Join& join = joins[pick];
    join_used[pick] = true;
    const BoundAttr probe = swap_sides ? join.right : join.left;
    const BoundAttr build = swap_sides ? join.left : join.right;
    Atom& build_atom = atoms[build.atom];
    if (build_atom.filtered) {
      build_atom.survivor.assign(build_atom.table->num_rows(), false);
      for (RowId r : build_atom.rows) build_atom.survivor[r] = true;
    }
    const relational::ColumnIndex& index =
        build_atom.table->Index(build.column);
    const relational::Table& probe_table = *atoms[probe.atom].table;
    char buf[relational::Value::kTextBufferSize];
    std::size_t produced = 0;
    for (std::size_t b = 0; b < bindings; ++b) {
      const relational::Value& v =
          probe_table.At(current[b * width + probe.atom], probe.column);
      if (v.is_null()) continue;
      for (RowId r : index.Find(v.CanonicalText(buf))) {
        if (build_atom.filtered && !build_atom.survivor[r]) continue;
        if (produced == options_.max_rows) {
          return util::Status::OutOfRange("result exceeds max_rows");
        }
        ++produced;
        next.insert(next.end(), current.begin() + b * width,
                    current.begin() + (b + 1) * width);
        next[next.size() - width + build.atom] = r;
      }
    }
    current.swap(next);
    joined[build.atom] = true;
  }

  // --- Residual join conditions (cycles in the join graph) ---------------
  for (std::size_t j = 0; j < joins.size(); ++j) {
    if (join_used[j]) continue;
    const Join& join = joins[j];
    const relational::Table& lt = *atoms[join.left.atom].table;
    const relational::Table& rt = *atoms[join.right.atom].table;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < current.size(); i += width) {
      const relational::Value& lv =
          lt.At(current[i + join.left.atom], join.left.column);
      const relational::Value& rv =
          rt.At(current[i + join.right.atom], join.right.column);
      if (!lv.is_null() && !rv.is_null() && SameText(lv, rv)) {
        std::copy(current.begin() + i, current.begin() + i + width,
                  current.begin() + kept);
        kept += width;
      }
    }
    current.resize(kept);
  }

  // --- Projection ---------------------------------------------------------
  std::vector<BoundAttr> out_cols;
  for (const OutputColumn& c : query.select_list) {
    Q_ASSIGN_OR_RETURN(BoundAttr b, resolve(c.attr));
    out_cols.push_back(b);
  }
  std::vector<relational::Row> out;
  out.reserve(current.size() / width);
  for (std::size_t i = 0; i < current.size(); i += width) {
    relational::Row row;
    row.reserve(out_cols.size());
    for (const BoundAttr& b : out_cols) {
      row.push_back(atoms[b.atom].table->At(current[i + b.atom], b.column));
    }
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace q::query

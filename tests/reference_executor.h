// The conjunctive-query executor that scans and hashes, kept as a referee
// for differential tests of query::Executor. Every selection rescans its
// atom, comparing each cell's Value::ToText; every join hashes its build
// atom's surviving rows on ToText and probes that hash. Execute's body is
// the scan-and-hash executor's, unchanged; only tests link it.
#ifndef Q_TESTS_REFERENCE_EXECUTOR_H_
#define Q_TESTS_REFERENCE_EXECUTOR_H_

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "query/conjunctive_query.h"
#include "query/executor.h"
#include "relational/catalog.h"
#include "util/result.h"

namespace q::query::reference {

// Working representation: one vector of row pointers per atom, plus the
// joined intermediate as vectors of per-atom row indices.
struct Atom {
  const relational::Table* table;
  std::vector<std::size_t> rows;  // surviving row indices after selections
};

struct BoundAttr {
  std::size_t atom;
  std::size_t column;
};

class ReferenceExecutor {
 public:
  explicit ReferenceExecutor(const relational::Catalog* catalog,
                             ExecutorOptions options = ExecutorOptions())
      : catalog_(catalog), options_(options) {}

  // Precondition: `query` has at least one atom.
  util::Result<std::vector<relational::Row>> Execute(
      const ConjunctiveQuery& query) const {
    // --- Resolve atoms ------------------------------------------------------
    std::vector<Atom> atoms;
    std::map<std::string, std::size_t> atom_index;
    for (const std::string& qualified : query.atoms) {
      auto table = catalog_->FindTable(qualified);
      if (table == nullptr) {
        return util::Status::NotFound("relation " + qualified);
      }
      atom_index[qualified] = atoms.size();
      atoms.push_back(Atom{table.get(), {}});
    }
    auto resolve = [&](const relational::AttributeId& attr)
        -> util::Result<BoundAttr> {
      auto it = atom_index.find(attr.RelationQualifiedName());
      if (it == atom_index.end()) {
        return util::Status::Internal("attribute " + attr.ToString() +
                                      " not bound to any atom");
      }
      auto col = atoms[it->second].table->schema().AttributeIndex(
          attr.attribute);
      if (!col.has_value()) {
        return util::Status::NotFound("attribute " + attr.ToString());
      }
      return BoundAttr{it->second, *col};
    };

    // --- Selections ---------------------------------------------------------
    // Group predicates per atom, then scan each atom once.
    std::vector<std::vector<std::pair<std::size_t, std::string>>> preds(
        atoms.size());
    for (const SelectionPredicate& s : query.selections) {
      Q_ASSIGN_OR_RETURN(BoundAttr b, resolve(s.attr));
      preds[b.atom].emplace_back(b.column, s.value_text);
    }
    for (std::size_t a = 0; a < atoms.size(); ++a) {
      const relational::Table& t = *atoms[a].table;
      for (std::size_t r = 0; r < t.num_rows(); ++r) {
        bool pass = true;
        for (const auto& [col, text] : preds[a]) {
          if (t.At(r, col).ToText() != text) {
            pass = false;
            break;
          }
        }
        if (pass) atoms[a].rows.push_back(r);
      }
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

    // Intermediate result: vector of bindings (one row index per joined
    // atom; kNotBound otherwise).
    constexpr std::size_t kNotBound = static_cast<std::size_t>(-1);
    std::vector<std::vector<std::size_t>> current;
    std::vector<bool> joined(atoms.size(), false);
    std::vector<bool> join_used(joins.size(), false);

    auto bind_first = [&](std::size_t a) {
      current.clear();
      for (std::size_t r : atoms[a].rows) {
        std::vector<std::size_t> binding(atoms.size(), kNotBound);
        binding[a] = r;
        current.push_back(std::move(binding));
      }
      joined[a] = true;
    };

    bind_first(0);
    std::size_t joined_count = 1;
    while (joined_count < atoms.size()) {
      // Find an unused join connecting the joined set to a new atom.
      std::size_t pick = joins.size();
      bool swap_sides = false;
      for (std::size_t j = 0; j < joins.size(); ++j) {
        if (join_used[j]) continue;
        bool lj = joined[joins[j].left.atom];
        bool rj = joined[joins[j].right.atom];
        if (lj && !rj) {
          pick = j;
          swap_sides = false;
          break;
        }
        if (rj && !lj) {
          pick = j;
          swap_sides = true;
          break;
        }
      }

      if (pick == joins.size()) {
        // No connecting join: cartesian-extend with the first unjoined atom.
        std::size_t a = 0;
        while (joined[a]) ++a;
        std::vector<std::vector<std::size_t>> next;
        for (const auto& binding : current) {
          for (std::size_t r : atoms[a].rows) {
            if (next.size() >= options_.max_rows) {
              return util::Status::OutOfRange(
                  "result exceeds max_rows during cartesian extension");
            }
            auto extended = binding;
            extended[a] = r;
            next.push_back(std::move(extended));
          }
        }
        current = std::move(next);
        joined[a] = true;
        ++joined_count;
        continue;
      }

      const Join& join = joins[pick];
      join_used[pick] = true;
      BoundAttr probe_side = swap_sides ? join.right : join.left;
      BoundAttr build_side = swap_sides ? join.left : join.right;

      // Hash the new atom's rows on the join key text.
      std::unordered_map<std::string, std::vector<std::size_t>> hash;
      const relational::Table& bt = *atoms[build_side.atom].table;
      for (std::size_t r : atoms[build_side.atom].rows) {
        const relational::Value& v = bt.At(r, build_side.column);
        if (v.is_null()) continue;
        hash[v.ToText()].push_back(r);
      }
      std::vector<std::vector<std::size_t>> next;
      const relational::Table& pt = *atoms[probe_side.atom].table;
      for (const auto& binding : current) {
        std::size_t pr = binding[probe_side.atom];
        const relational::Value& v = pt.At(pr, probe_side.column);
        if (v.is_null()) continue;
        auto it = hash.find(v.ToText());
        if (it == hash.end()) continue;
        for (std::size_t r : it->second) {
          if (next.size() >= options_.max_rows) {
            return util::Status::OutOfRange("result exceeds max_rows");
          }
          auto extended = binding;
          extended[build_side.atom] = r;
          next.push_back(std::move(extended));
        }
      }
      current = std::move(next);
      joined[build_side.atom] = true;
      ++joined_count;
    }

    // --- Residual join conditions (cycles in the join graph) ---------------
    for (std::size_t j = 0; j < joins.size(); ++j) {
      if (join_used[j]) continue;
      const Join& join = joins[j];
      const relational::Table& lt = *atoms[join.left.atom].table;
      const relational::Table& rt = *atoms[join.right.atom].table;
      std::vector<std::vector<std::size_t>> filtered;
      for (auto& binding : current) {
        const relational::Value& lv =
            lt.At(binding[join.left.atom], join.left.column);
        const relational::Value& rv =
            rt.At(binding[join.right.atom], join.right.column);
        if (!lv.is_null() && !rv.is_null() && lv.ToText() == rv.ToText()) {
          filtered.push_back(std::move(binding));
        }
      }
      current = std::move(filtered);
    }

    // --- Projection ---------------------------------------------------------
    std::vector<BoundAttr> out_cols;
    for (const OutputColumn& c : query.select_list) {
      Q_ASSIGN_OR_RETURN(BoundAttr b, resolve(c.attr));
      out_cols.push_back(b);
    }
    std::vector<relational::Row> out;
    out.reserve(current.size());
    for (const auto& binding : current) {
      relational::Row row;
      row.reserve(out_cols.size());
      for (const BoundAttr& b : out_cols) {
        row.push_back(atoms[b.atom].table->At(binding[b.atom], b.column));
      }
      out.push_back(std::move(row));
    }
    return out;
  }

 private:
  const relational::Catalog* catalog_;
  ExecutorOptions options_;
};

}  // namespace q::query::reference

#endif  // Q_TESTS_REFERENCE_EXECUTOR_H_

#ifndef COLMR_SERDE_PREDICATE_H_
#define COLMR_SERDE_PREDICATE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "serde/batch.h"
#include "serde/record.h"
#include "serde/schema.h"
#include "serde/value.h"

namespace colmr {

// Predicate pushdown (DESIGN.md §13). A Predicate is a small filter tree —
// column-vs-literal comparisons, IS [NOT] NULL tests, and AND/OR — that a
// job attaches to JobConfig. The same tree is evaluated three ways, all
// with identical (three-valued, SQL-style) semantics:
//
//   1. against per-rowgroup / per-file column statistics (zone maps), to
//      refute whole splits and rowgroups without touching their bytes;
//   2. row-at-a-time through Record::Get, for row formats and jobs
//      without pushdown;
//   3. column-at-a-time over ColumnBatch lanes into a selection vector,
//      for CIF under pushdown, eager or lazy records alike.
//
// NULL follows Kleene logic: a comparison with a null operand is NULL,
// AND/OR propagate NULL, and a row passes the filter only when the tree
// evaluates to TRUE. Floating-point comparisons are IEEE: every ordered
// comparison with a NaN operand is false (and != is true), identically in
// all three evaluators.

/// Three-valued logic result.
enum class Tri : uint8_t { kFalse = 0, kTrue = 1, kNull = 2 };

struct Predicate {
  enum class Op : uint8_t {
    kEq,
    kNe,
    kLt,
    kLe,
    kGt,
    kGe,
    kIsNull,
    kIsNotNull,
    kAnd,
    kOr,
  };

  Op op = Op::kAnd;
  /// Leaf ops only: the top-level column the test applies to.
  std::string column;
  /// Comparison leaves only: the literal compared against. Numeric
  /// literals compare with any numeric column (int32/int64/double are
  /// promoted); string literals with string/bytes columns.
  Value literal;
  /// kAnd/kOr only.
  std::vector<Predicate> children;

  static Predicate Cmp(Op op, std::string column, Value literal);
  static Predicate IsNull(std::string column);
  static Predicate IsNotNull(std::string column);
  static Predicate And(std::vector<Predicate> children);
  static Predicate Or(std::vector<Predicate> children);

  /// Round-trippable text form (the CLI --where grammar).
  std::string ToString() const;
};

/// Parses the --where grammar (README):
///   expr   := term (OR term)*
///   term   := factor (AND factor)*
///   factor := '(' expr ')' | column IS [NOT] NULL | column cmp literal
///   cmp    := = | == | != | <> | < | <= | > | >=
///   literal:= integer | float | 'string' | "string" | true | false
/// Keywords are case-insensitive; string escapes: \' \" \\.
Status ParsePredicate(const std::string& text, Predicate* out);

/// Checks the tree is well-formed against a record schema: comparison
/// columns must be primitive and kind-compatible with their literal, and
/// every referenced column must exist unless tolerate_missing (schema
/// evolution: a missing column evaluates as NULL).
Status ValidatePredicate(const Predicate& predicate, const Schema& schema,
                         bool tolerate_missing);

/// The distinct top-level columns the tree references, sorted.
std::vector<std::string> PredicateColumns(const Predicate& predicate);

/// Widens a reader's read set — `indices`, field indices of `schema` — to
/// every column `predicate` references: the filter reads them on every
/// row, in the reader's selection vector or the engine's row-wise check,
/// so the reader must serve those columns whatever the projection.
/// *indices ends sorted and distinct. Referenced columns `schema` lacks,
/// which evaluate as NULL, join *missing (if given) once.
void AddPredicateColumns(const Predicate& predicate, const Schema& schema,
                         std::vector<int>* indices,
                         std::vector<std::string>* missing);

/// Evaluates one record through Record::Get. On a Get error, *status is
/// set and kNull returned; callers must check *status. Rows reach the map
/// function only on kTrue.
Tri EvalPredicateRow(const Predicate& predicate, Record& record,
                     Status* status);

// ---- Zone-map refutation ----

/// Min/max/null-count/value-count of one column over some row range (a
/// rowgroup or a whole file). values counts rows (nulls included); min and
/// max, when flagged, bound every non-null value in the range. For string
/// columns the bounds may be truncated prefixes — min is then still a
/// lower bound and max an upper bound (the stored max is bumped past the
/// prefix), so refutation stays conservative. A range containing NaN
/// doubles carries no min/max at all.
struct ColumnStats {
  uint64_t values = 0;
  uint64_t nulls = 0;
  bool has_min = false;
  bool has_max = false;
  Value min;
  Value max;
};

/// Conservative satisfiability test: false only when NO row of the range
/// can make the predicate true (the range may then be pruned). `stats`
/// returns the column's ColumnStats for the range, or nullptr when
/// unknown — unknown columns never refute.
bool PredicateCanMatch(
    const Predicate& predicate,
    const std::function<const ColumnStats*(const std::string&)>& stats);

// ---- Vectorized evaluation ----

/// Evaluates a predicate column-at-a-time over ColumnBatch lanes and
/// collects the row indices that evaluate TRUE, ascending, into
/// *selection. `lane` maps a column name to its batch (nullptr = the
/// column is absent and evaluates as NULL). Reused across batches; the
/// mask pool reaches a steady state with no allocation.
class BatchPredicateEvaluator {
 public:
  using LaneFn = std::function<const ColumnBatch*(const std::string&)>;

  void Eval(const Predicate& predicate, const LaneFn& lane, uint64_t rows,
            std::vector<uint32_t>* selection);

 private:
  /// Parallel byte masks: t[i] = row i is definitely true, n[i] = NULL.
  /// Neither set = definitely false.
  struct Mask {
    std::vector<uint8_t> t;
    std::vector<uint8_t> n;
  };

  void EvalNode(const Predicate& p, const LaneFn& lane, uint64_t rows,
                Mask* out);
  void EvalLeaf(const Predicate& p, const ColumnBatch* batch, uint64_t rows,
                Mask* out);

  Mask* AcquireMask();
  void ReleaseMask();

  // unique_ptr elements: recursion holds Mask* across pool growth.
  std::vector<std::unique_ptr<Mask>> pool_;
  size_t pool_used_ = 0;
};

/// Shared ordering for stats accumulation: strict less-than over
/// comparable primitive values (numeric kinds promoted, strings/bytes
/// compared as unsigned bytes). Both operands must be non-null and
/// mutually comparable; NaN must not be passed.
bool PrimitiveLess(const Value& a, const Value& b);

}  // namespace colmr

#endif  // COLMR_SERDE_PREDICATE_H_

#include "serde/predicate.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <set>
#include <utility>

#include "common/slice.h"

namespace colmr {

namespace {

using Op = Predicate::Op;

/// Kinds that compare with each other. Numeric kinds are promoted
/// (int32/int64 compare exactly; double forces IEEE double comparison);
/// string and bytes compare as unsigned byte sequences.
enum class CmpClass { kNumeric, kStringy, kBool, kOther };

CmpClass ClassOf(TypeKind kind) {
  switch (kind) {
    case TypeKind::kInt32:
    case TypeKind::kInt64:
    case TypeKind::kDouble:
      return CmpClass::kNumeric;
    case TypeKind::kString:
    case TypeKind::kBytes:
      return CmpClass::kStringy;
    case TypeKind::kBool:
      return CmpClass::kBool;
    default:
      return CmpClass::kOther;
  }
}

template <typename T>
Tri ApplyOp(Op op, T a, T b) {
  bool r = false;
  switch (op) {
    case Op::kEq: r = a == b; break;
    case Op::kNe: r = a != b; break;
    case Op::kLt: r = a < b; break;
    case Op::kLe: r = a <= b; break;
    case Op::kGt: r = a > b; break;
    case Op::kGe: r = a >= b; break;
    default: return Tri::kNull;
  }
  return r ? Tri::kTrue : Tri::kFalse;
}

double NumericAsDouble(const Value& v) {
  return v.kind() == TypeKind::kDouble
             ? v.double_value()
             : static_cast<double>(v.int64_value());
}

/// Comparison of two non-null values. Incomparable classes evaluate to
/// NULL (validation rejects them up front; this keeps evaluation total).
/// Doubles follow IEEE semantics: any ordered comparison with NaN is
/// false, NaN != x is true — the kernels use the same machine compares,
/// so the row path and the batch path cannot disagree.
Tri EvalCmpValues(Op op, const Value& a, const Value& b) {
  const CmpClass ca = ClassOf(a.kind());
  if (ca != ClassOf(b.kind()) || ca == CmpClass::kOther) return Tri::kNull;
  switch (ca) {
    case CmpClass::kNumeric:
      if (a.kind() == TypeKind::kDouble || b.kind() == TypeKind::kDouble) {
        return ApplyOp(op, NumericAsDouble(a), NumericAsDouble(b));
      }
      return ApplyOp(op, a.int64_value(), b.int64_value());
    case CmpClass::kStringy:
      return ApplyOp(op, Slice(a.string_value()).Compare(b.string_value()), 0);
    case CmpClass::kBool:
      return ApplyOp(op, a.bool_value() ? 1 : 0, b.bool_value() ? 1 : 0);
    default:
      return Tri::kNull;
  }
}

/// Strict less-than in the stats/refutation order; incomparable = false
/// (never refutes).
bool Less(const Value& a, const Value& b) {
  return EvalCmpValues(Op::kLt, a, b) == Tri::kTrue;
}

const char* OpText(Op op) {
  switch (op) {
    case Op::kEq: return "=";
    case Op::kNe: return "!=";
    case Op::kLt: return "<";
    case Op::kLe: return "<=";
    case Op::kGt: return ">";
    case Op::kGe: return ">=";
    default: return "?";
  }
}

std::string LiteralText(const Value& v) {
  switch (v.kind()) {
    case TypeKind::kString:
    case TypeKind::kBytes: {
      std::string out = "'";
      for (char c : v.string_value()) {
        if (c == '\'' || c == '\\') out.push_back('\\');
        out.push_back(c);
      }
      out.push_back('\'');
      return out;
    }
    default:
      return v.ToString();
  }
}

void CollectColumns(const Predicate& p, std::set<std::string>* out) {
  if (p.op == Op::kAnd || p.op == Op::kOr) {
    for (const Predicate& child : p.children) CollectColumns(child, out);
  } else {
    out->insert(p.column);
  }
}

}  // namespace

Predicate Predicate::Cmp(Op op, std::string column, Value literal) {
  Predicate p;
  p.op = op;
  p.column = std::move(column);
  p.literal = std::move(literal);
  return p;
}

Predicate Predicate::IsNull(std::string column) {
  Predicate p;
  p.op = Op::kIsNull;
  p.column = std::move(column);
  return p;
}

Predicate Predicate::IsNotNull(std::string column) {
  Predicate p;
  p.op = Op::kIsNotNull;
  p.column = std::move(column);
  return p;
}

Predicate Predicate::And(std::vector<Predicate> children) {
  Predicate p;
  p.op = Op::kAnd;
  p.children = std::move(children);
  return p;
}

Predicate Predicate::Or(std::vector<Predicate> children) {
  Predicate p;
  p.op = Op::kOr;
  p.children = std::move(children);
  return p;
}

std::string Predicate::ToString() const {
  switch (op) {
    case Op::kAnd:
    case Op::kOr: {
      std::string out;
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += op == Op::kAnd ? " AND " : " OR ";
        // AND binds tighter than OR, so only an OR child under AND needs
        // parentheses for the text to round-trip.
        const bool parens = op == Op::kAnd && children[i].op == Op::kOr;
        if (parens) out.push_back('(');
        out += children[i].ToString();
        if (parens) out.push_back(')');
      }
      return out;
    }
    case Op::kIsNull:
      return column + " IS NULL";
    case Op::kIsNotNull:
      return column + " IS NOT NULL";
    default:
      return column + " " + OpText(op) + " " + LiteralText(literal);
  }
}

std::vector<std::string> PredicateColumns(const Predicate& predicate) {
  std::set<std::string> names;
  CollectColumns(predicate, &names);
  return std::vector<std::string>(names.begin(), names.end());
}

void AddPredicateColumns(const Predicate& predicate, const Schema& schema,
                         std::vector<int>* indices,
                         std::vector<std::string>* missing) {
  for (std::string& name : PredicateColumns(predicate)) {
    const int index = schema.FieldIndex(name);
    if (index >= 0) {
      indices->push_back(index);
    } else if (missing != nullptr && std::find(missing->begin(),
                                               missing->end(),
                                               name) == missing->end()) {
      missing->push_back(std::move(name));
    }
  }
  std::sort(indices->begin(), indices->end());
  indices->erase(std::unique(indices->begin(), indices->end()),
                 indices->end());
}

Status ValidatePredicate(const Predicate& predicate, const Schema& schema,
                         bool tolerate_missing) {
  if (predicate.op == Op::kAnd || predicate.op == Op::kOr) {
    for (const Predicate& child : predicate.children) {
      COLMR_RETURN_IF_ERROR(
          ValidatePredicate(child, schema, tolerate_missing));
    }
    return Status::OK();
  }
  if (schema.kind() != TypeKind::kRecord) {
    return Status::InvalidArgument("predicate: schema is not a record");
  }
  const int index = schema.FieldIndex(predicate.column);
  if (index < 0) {
    if (tolerate_missing) return Status::OK();  // evaluates as NULL
    return Status::InvalidArgument("predicate: unknown column " +
                                   predicate.column);
  }
  if (predicate.op == Op::kIsNull || predicate.op == Op::kIsNotNull) {
    return Status::OK();
  }
  const Schema& column = *schema.fields()[index].type;
  if (!column.is_primitive()) {
    return Status::InvalidArgument(
        "predicate: comparison on non-primitive column " + predicate.column);
  }
  if (predicate.literal.is_null()) {
    return Status::InvalidArgument(
        "predicate: comparison literal is null (use IS NULL)");
  }
  // A null-typed column never satisfies a comparison but is legal to
  // test against any literal; other kinds must be class-compatible.
  if (column.kind() != TypeKind::kNull) {
    const CmpClass cc = ClassOf(column.kind());
    if (cc == CmpClass::kOther || cc != ClassOf(predicate.literal.kind())) {
      return Status::InvalidArgument(
          "predicate: literal type does not compare with column " +
          predicate.column);
    }
  }
  return Status::OK();
}

Tri EvalPredicateRow(const Predicate& predicate, Record& record,
                     Status* status) {
  switch (predicate.op) {
    case Op::kAnd: {
      Tri acc = Tri::kTrue;
      for (const Predicate& child : predicate.children) {
        const Tri t = EvalPredicateRow(child, record, status);
        if (!status->ok()) return Tri::kNull;
        if (t == Tri::kFalse) return Tri::kFalse;
        if (t == Tri::kNull) acc = Tri::kNull;
      }
      return acc;
    }
    case Op::kOr: {
      Tri acc = Tri::kFalse;
      for (const Predicate& child : predicate.children) {
        const Tri t = EvalPredicateRow(child, record, status);
        if (!status->ok()) return Tri::kNull;
        if (t == Tri::kTrue) return Tri::kTrue;
        if (t == Tri::kNull) acc = Tri::kNull;
      }
      return acc;
    }
    default: {
      const Value* v = nullptr;
      const Status s = record.Get(predicate.column, &v);
      if (!s.ok()) {
        *status = s;
        return Tri::kNull;
      }
      if (predicate.op == Op::kIsNull) {
        return v->is_null() ? Tri::kTrue : Tri::kFalse;
      }
      if (predicate.op == Op::kIsNotNull) {
        return v->is_null() ? Tri::kFalse : Tri::kTrue;
      }
      if (v->is_null() || predicate.literal.is_null()) return Tri::kNull;
      return EvalCmpValues(predicate.op, *v, predicate.literal);
    }
  }
}

// ---- Zone-map refutation ----

namespace {

bool CanMatchLeaf(const Predicate& p, const ColumnStats* s) {
  if (s == nullptr) return true;  // unknown column: never refute
  if (p.op == Op::kIsNull) return s->nulls > 0;
  if (p.op == Op::kIsNotNull) return s->values > s->nulls;
  // Comparisons need at least one non-null value to ever be true.
  if (s->values <= s->nulls) return false;
  const Value& lit = p.literal;
  if (lit.is_null()) return false;
  if (lit.kind() == TypeKind::kDouble && std::isnan(lit.double_value())) {
    // IEEE: x != NaN holds for every x; every other comparison never does.
    return p.op == Op::kNe;
  }
  switch (p.op) {
    case Op::kEq:
      if (s->has_min && Less(lit, s->min)) return false;
      if (s->has_max && Less(s->max, lit)) return false;
      return true;
    case Op::kNe:
      // Refuted only when min == max == lit, i.e. every value equals the
      // literal exactly (NaN-bearing ranges carry no min/max, and typed
      // columns carry no nulls, so the bounds are over all rows).
      return !(s->has_min && s->has_max && !Less(s->min, lit) &&
               !Less(lit, s->min) && !Less(s->max, lit) &&
               !Less(lit, s->max));
    case Op::kLt:
      return !s->has_min || Less(s->min, lit);
    case Op::kLe:
      return !s->has_min || !Less(lit, s->min);
    case Op::kGt:
      return !s->has_max || Less(lit, s->max);
    case Op::kGe:
      return !s->has_max || !Less(s->max, lit);
    default:
      return true;
  }
}

}  // namespace

bool PredicateCanMatch(
    const Predicate& predicate,
    const std::function<const ColumnStats*(const std::string&)>& stats) {
  switch (predicate.op) {
    case Op::kAnd:
      // If any conjunct is unsatisfiable over the range, so is the AND.
      for (const Predicate& child : predicate.children) {
        if (!PredicateCanMatch(child, stats)) return false;
      }
      return true;
    case Op::kOr: {
      if (predicate.children.empty()) return false;
      for (const Predicate& child : predicate.children) {
        if (PredicateCanMatch(child, stats)) return true;
      }
      return false;
    }
    default:
      return CanMatchLeaf(predicate, stats(predicate.column));
  }
}

bool PrimitiveLess(const Value& a, const Value& b) { return Less(a, b); }

// ---- Vectorized evaluation ----

namespace {

/// One comparison loop with the operator switch hoisted out, so each case
/// body is a tight branch-light loop the compiler can vectorize.
template <typename GetFn, typename T>
void CmpLoop(Op op, uint64_t rows, const GetFn& get, T lit, uint8_t* t) {
  switch (op) {
    case Op::kEq:
      for (uint64_t i = 0; i < rows; ++i) t[i] = get(i) == lit;
      break;
    case Op::kNe:
      for (uint64_t i = 0; i < rows; ++i) t[i] = get(i) != lit;
      break;
    case Op::kLt:
      for (uint64_t i = 0; i < rows; ++i) t[i] = get(i) < lit;
      break;
    case Op::kLe:
      for (uint64_t i = 0; i < rows; ++i) t[i] = get(i) <= lit;
      break;
    case Op::kGt:
      for (uint64_t i = 0; i < rows; ++i) t[i] = get(i) > lit;
      break;
    case Op::kGe:
      for (uint64_t i = 0; i < rows; ++i) t[i] = get(i) >= lit;
      break;
    default:
      break;
  }
}

}  // namespace

BatchPredicateEvaluator::Mask* BatchPredicateEvaluator::AcquireMask() {
  if (pool_used_ == pool_.size()) {
    pool_.push_back(std::make_unique<Mask>());
  }
  return pool_[pool_used_++].get();
}

void BatchPredicateEvaluator::ReleaseMask() { --pool_used_; }

void BatchPredicateEvaluator::EvalLeaf(const Predicate& p,
                                       const ColumnBatch* batch,
                                       uint64_t rows, Mask* out) {
  out->t.assign(rows, 0);
  out->n.assign(rows, 0);
  const bool null_test = p.op == Op::kIsNull || p.op == Op::kIsNotNull;
  if (batch == nullptr || batch->kind() == TypeKind::kNull) {
    // Absent column or null-typed column: every row's value is null.
    if (p.op == Op::kIsNull) {
      out->t.assign(rows, 1);
    } else if (!null_test) {
      out->n.assign(rows, 1);
    }
    return;
  }
  if (null_test) {
    // Typed and boxed lanes hold no nulls: the value encoding cannot
    // produce one for a non-null column type.
    if (p.op == Op::kIsNotNull) out->t.assign(rows, 1);
    return;
  }
  const Value& lit = p.literal;
  uint8_t* t = out->t.data();
  if (lit.is_null() || batch->is_boxed()) {
    out->n.assign(rows, 1);
    return;
  }
  switch (batch->kind()) {
    case TypeKind::kBool:
      if (ClassOf(lit.kind()) != CmpClass::kBool) break;
      CmpLoop(
          p.op, rows, [batch](uint64_t i) { return batch->BoolAt(i) ? 1 : 0; },
          lit.bool_value() ? 1 : 0, t);
      return;
    case TypeKind::kInt32:
    case TypeKind::kInt64:
      if (ClassOf(lit.kind()) != CmpClass::kNumeric) break;
      if (lit.kind() == TypeKind::kDouble) {
        CmpLoop(
            p.op, rows,
            [batch](uint64_t i) {
              return static_cast<double>(batch->IntAt(i));
            },
            lit.double_value(), t);
      } else {
        CmpLoop(
            p.op, rows, [batch](uint64_t i) { return batch->IntAt(i); },
            lit.int64_value(), t);
      }
      return;
    case TypeKind::kDouble:
      if (ClassOf(lit.kind()) != CmpClass::kNumeric) break;
      CmpLoop(
          p.op, rows, [batch](uint64_t i) { return batch->DoubleAt(i); },
          NumericAsDouble(lit), t);
      return;
    case TypeKind::kString:
    case TypeKind::kBytes: {
      if (ClassOf(lit.kind()) != CmpClass::kStringy) break;
      const Slice lit_slice(lit.string_value());
      CmpLoop(
          p.op, rows,
          [batch, lit_slice](uint64_t i) {
            return batch->StringAt(i).Compare(lit_slice);
          },
          0, t);
      return;
    }
    default:
      break;
  }
  // Incomparable column/literal classes: NULL, as in the row path.
  out->n.assign(rows, 1);
}

void BatchPredicateEvaluator::EvalNode(const Predicate& p, const LaneFn& lane,
                                       uint64_t rows, Mask* out) {
  if (p.op != Op::kAnd && p.op != Op::kOr) {
    EvalLeaf(p, lane(p.column), rows, out);
    return;
  }
  if (p.children.empty()) {
    out->t.assign(rows, p.op == Op::kAnd ? 1 : 0);
    out->n.assign(rows, 0);
    return;
  }
  EvalNode(p.children.front(), lane, rows, out);
  if (p.children.size() == 1) return;
  Mask* rhs = AcquireMask();
  for (size_t c = 1; c < p.children.size(); ++c) {
    EvalNode(p.children[c], lane, rows, rhs);
    uint8_t* ta = out->t.data();
    uint8_t* na = out->n.data();
    const uint8_t* tb = rhs->t.data();
    const uint8_t* nb = rhs->n.data();
    if (p.op == Op::kAnd) {
      // Kleene AND: true iff both true, false if either false, else null.
      for (uint64_t i = 0; i < rows; ++i) {
        const uint8_t fa = (ta[i] | na[i]) ^ 1;
        const uint8_t fb = (tb[i] | nb[i]) ^ 1;
        const uint8_t t = ta[i] & tb[i];
        ta[i] = t;
        na[i] = (t | fa | fb) ^ 1;
      }
    } else {
      // Kleene OR: true if either true, false iff both false, else null.
      for (uint64_t i = 0; i < rows; ++i) {
        const uint8_t fa = (ta[i] | na[i]) ^ 1;
        const uint8_t fb = (tb[i] | nb[i]) ^ 1;
        const uint8_t t = ta[i] | tb[i];
        ta[i] = t;
        na[i] = (t | (fa & fb)) ^ 1;
      }
    }
  }
  ReleaseMask();
}

void BatchPredicateEvaluator::Eval(const Predicate& predicate,
                                   const LaneFn& lane, uint64_t rows,
                                   std::vector<uint32_t>* selection) {
  selection->clear();
  if (rows == 0) return;
  Mask* mask = AcquireMask();
  EvalNode(predicate, lane, rows, mask);
  const uint8_t* t = mask->t.data();
  for (uint64_t i = 0; i < rows; ++i) {
    if (t[i]) selection->push_back(static_cast<uint32_t>(i));
  }
  ReleaseMask();
}

// ---- Parser ----

namespace {

class PredicateParser {
 public:
  explicit PredicateParser(const std::string& text) : text_(text) {}

  Status Parse(Predicate* out) {
    COLMR_RETURN_IF_ERROR(ParseOr(out));
    SkipWs();
    if (pos_ != text_.size()) {
      return Err("unexpected input after expression");
    }
    return Status::OK();
  }

 private:
  Status Err(const std::string& message) const {
    return Status::InvalidArgument("where: " + message + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  static bool IdentStart(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
  }
  static bool IdentChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  }

  /// Case-insensitively consumes `word` as a whole keyword.
  bool ConsumeKeyword(const char* word) {
    SkipWs();
    size_t p = pos_;
    for (const char* w = word; *w != '\0'; ++w, ++p) {
      if (p >= text_.size() ||
          std::toupper(static_cast<unsigned char>(text_[p])) != *w) {
        return false;
      }
    }
    if (p < text_.size() && IdentChar(text_[p])) return false;
    pos_ = p;
    return true;
  }

  Status ParseOr(Predicate* out) {
    std::vector<Predicate> terms(1);
    COLMR_RETURN_IF_ERROR(ParseAnd(&terms.back()));
    while (ConsumeKeyword("OR")) {
      terms.emplace_back();
      COLMR_RETURN_IF_ERROR(ParseAnd(&terms.back()));
    }
    *out = terms.size() == 1 ? std::move(terms.front())
                             : Predicate::Or(std::move(terms));
    return Status::OK();
  }

  Status ParseAnd(Predicate* out) {
    std::vector<Predicate> terms(1);
    COLMR_RETURN_IF_ERROR(ParseFactor(&terms.back()));
    while (ConsumeKeyword("AND")) {
      terms.emplace_back();
      COLMR_RETURN_IF_ERROR(ParseFactor(&terms.back()));
    }
    *out = terms.size() == 1 ? std::move(terms.front())
                             : Predicate::And(std::move(terms));
    return Status::OK();
  }

  Status ParseFactor(Predicate* out) {
    if (Consume('(')) {
      COLMR_RETURN_IF_ERROR(ParseOr(out));
      if (!Consume(')')) return Err("expected ')'");
      return Status::OK();
    }
    std::string column;
    COLMR_RETURN_IF_ERROR(ParseIdent(&column));
    if (ConsumeKeyword("IS")) {
      const bool negated = ConsumeKeyword("NOT");
      if (!ConsumeKeyword("NULL")) return Err("expected NULL after IS");
      *out = negated ? Predicate::IsNotNull(std::move(column))
                     : Predicate::IsNull(std::move(column));
      return Status::OK();
    }
    Op op;
    COLMR_RETURN_IF_ERROR(ParseOp(&op));
    Value literal;
    COLMR_RETURN_IF_ERROR(ParseLiteral(&literal));
    *out = Predicate::Cmp(op, std::move(column), std::move(literal));
    return Status::OK();
  }

  Status ParseIdent(std::string* out) {
    SkipWs();
    if (pos_ >= text_.size() || !IdentStart(text_[pos_])) {
      return Err("expected column name");
    }
    const size_t start = pos_;
    while (pos_ < text_.size() && IdentChar(text_[pos_])) ++pos_;
    out->assign(text_, start, pos_ - start);
    return Status::OK();
  }

  Status ParseOp(Op* out) {
    SkipWs();
    const auto starts = [&](const char* s) {
      return text_.compare(pos_, std::char_traits<char>::length(s), s) == 0;
    };
    if (starts("==")) { *out = Op::kEq; pos_ += 2; return Status::OK(); }
    if (starts("!=") || starts("<>")) {
      *out = Op::kNe;
      pos_ += 2;
      return Status::OK();
    }
    if (starts("<=")) { *out = Op::kLe; pos_ += 2; return Status::OK(); }
    if (starts(">=")) { *out = Op::kGe; pos_ += 2; return Status::OK(); }
    if (starts("=")) { *out = Op::kEq; pos_ += 1; return Status::OK(); }
    if (starts("<")) { *out = Op::kLt; pos_ += 1; return Status::OK(); }
    if (starts(">")) { *out = Op::kGt; pos_ += 1; return Status::OK(); }
    return Err("expected comparison operator");
  }

  Status ParseLiteral(Value* out) {
    SkipWs();
    if (pos_ >= text_.size()) return Err("expected literal");
    const char first = text_[pos_];
    if (first == '\'' || first == '"') {
      const char quote = first;
      ++pos_;
      std::string s;
      while (pos_ < text_.size() && text_[pos_] != quote) {
        char c = text_[pos_++];
        if (c == '\\' && pos_ < text_.size()) c = text_[pos_++];
        s.push_back(c);
      }
      if (pos_ >= text_.size()) return Err("unterminated string literal");
      ++pos_;  // closing quote
      *out = Value::String(std::move(s));
      return Status::OK();
    }
    if (ConsumeKeyword("TRUE")) {
      *out = Value::Bool(true);
      return Status::OK();
    }
    if (ConsumeKeyword("FALSE")) {
      *out = Value::Bool(false);
      return Status::OK();
    }
    // Number: [+-]? digits, optionally with '.'/exponent -> double.
    const size_t start = pos_;
    if (first == '+' || first == '-') ++pos_;
    bool is_double = false;
    bool any_digit = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        any_digit = true;
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E') {
        is_double = true;
        ++pos_;
        if (pos_ < text_.size() &&
            (text_[pos_] == '+' || text_[pos_] == '-') &&
            (c == 'e' || c == 'E')) {
          ++pos_;
        }
      } else {
        break;
      }
    }
    if (!any_digit) return Err("expected literal");
    const std::string token = text_.substr(start, pos_ - start);
    errno = 0;
    char* end = nullptr;
    if (is_double) {
      const double d = std::strtod(token.c_str(), &end);
      if (end != token.c_str() + token.size() || errno == ERANGE) {
        return Err("bad numeric literal '" + token + "'");
      }
      *out = Value::Double(d);
    } else {
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (end != token.c_str() + token.size() || errno == ERANGE) {
        return Err("bad integer literal '" + token + "'");
      }
      *out = Value::Int64(v);
    }
    return Status::OK();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Status ParsePredicate(const std::string& text, Predicate* out) {
  return PredicateParser(text).Parse(out);
}

}  // namespace colmr

#include "serde/batch.h"

namespace colmr {

void ColumnBatch::Reset(TypeKind kind) {
  kind_ = kind;
  size_ = 0;
  bools_.clear();
  ints_.clear();
  doubles_.clear();
  strings_.clear();
  nulls_.clear();
  keepalive_.clear();
}

void ColumnBatch::MaterializeInto(size_t row, Value* out) const {
  if (IsNull(row)) {
    out->AssignNull();
    return;
  }
  switch (kind_) {
    case TypeKind::kNull:
      out->AssignNull();
      return;
    case TypeKind::kBool:
      out->AssignBool(bools_[row] != 0);
      return;
    case TypeKind::kInt32:
      out->AssignInt32(static_cast<int32_t>(ints_[row]));
      return;
    case TypeKind::kInt64:
      out->AssignInt64(ints_[row]);
      return;
    case TypeKind::kDouble:
      out->AssignDouble(doubles_[row]);
      return;
    case TypeKind::kString:
    case TypeKind::kBytes:
      out->AssignString(kind_, strings_[row].ToStringView());
      return;
    case TypeKind::kArray:
    case TypeKind::kMap:
    case TypeKind::kRecord:
      *out = boxed_[row];  // deep copy; batch consumers prefer BoxedAt
      return;
  }
  out->AssignNull();
}

}  // namespace colmr

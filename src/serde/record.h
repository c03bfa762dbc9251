#ifndef COLMR_SERDE_RECORD_H_
#define COLMR_SERDE_RECORD_H_

#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "serde/schema.h"
#include "serde/value.h"

namespace colmr {

/// The record abstraction map functions are written against (paper
/// Appendix A). A map function receives a Record& and pulls the fields it
/// needs with Get(name); whether fields were materialized eagerly or
/// lazily is invisible to the function — exactly the property that lets
/// EagerRecord and cif::LazyRecord share user code.
class Record {
 public:
  virtual ~Record() = default;

  /// The record's (top-level) schema.
  virtual const Schema& schema() const = 0;

  /// Fetches the value of the named top-level field. The returned pointer
  /// is valid until the next call to Get or until the reader advances to
  /// the next record. Returns NotFound for unknown fields; a field outside
  /// the configured projection reads as Null.
  virtual Status Get(std::string_view name, const Value** value) = 0;

  /// Convenience wrapper for code (tests, examples) that knows the field
  /// exists; terminates the process on error.
  const Value& GetOrDie(std::string_view name);
};

/// A record whose fields are all materialized up front — the default
/// record construction strategy (paper Section 5.1, EagerRecord).
class EagerRecord final : public Record {
 public:
  EagerRecord(Schema::Ptr schema, Value record_value);

  const Schema& schema() const override { return *schema_; }
  Status Get(std::string_view name, const Value** value) override;

  /// Direct access to the underlying record value.
  const Value& value() const { return value_; }
  Value* mutable_value() { return &value_; }

 private:
  Schema::Ptr schema_;
  Value value_;
};

}  // namespace colmr

#endif  // COLMR_SERDE_RECORD_H_

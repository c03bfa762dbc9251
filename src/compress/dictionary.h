#ifndef COLMR_COMPRESS_DICTIONARY_H_
#define COLMR_COMPRESS_DICTIONARY_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/buffer.h"
#include "common/slice.h"
#include "common/status.h"

namespace colmr {

/// Lightweight string dictionary for the dictionary-compressed skip list
/// (DCSL) column layout (paper Section 5.3). Map keys in real datasets are
/// drawn from a small universe, so each block of map values stores one
/// dictionary of its keys and replaces every key with a varint id.
///
/// Ids are assigned densely in first-seen order. Lookup by id is an O(1)
/// vector index — the property that makes DCSL decompression so much
/// cheaper than block codecs: a single map value can be decoded without
/// touching the rest of the block.
class StringDictionary {
 public:
  StringDictionary() = default;

  /// Returns the id for s, inserting it if unseen.
  uint32_t Intern(Slice s);

  /// Returns the id for s, or -1 if absent (lookup without insertion).
  int64_t Find(Slice s) const;

  /// Returns the string for an id; id must be < size().
  const std::string& Lookup(uint32_t id) const { return entries_[id]; }

  size_t size() const { return entries_.size(); }

  /// Appends the serialized dictionary: varint count, then
  /// length-prefixed entries in id order.
  void Serialize(Buffer* out) const;

  /// Parses a dictionary serialized by Serialize, consuming from *input.
  Status Deserialize(Slice* input);

  /// Serialized footprint in bytes (for space accounting in benches).
  size_t SerializedSize() const;

 private:
  std::vector<std::string> entries_;
  std::unordered_map<std::string, uint32_t> index_;
};

}  // namespace colmr

#endif  // COLMR_COMPRESS_DICTIONARY_H_

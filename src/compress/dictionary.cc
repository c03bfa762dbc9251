#include "compress/dictionary.h"

#include "common/coding.h"

namespace colmr {

uint32_t StringDictionary::Intern(Slice s) {
  auto it = index_.find(std::string(s.data(), s.size()));
  if (it != index_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(entries_.size());
  entries_.emplace_back(s.data(), s.size());
  index_.emplace(entries_.back(), id);
  return id;
}

int64_t StringDictionary::Find(Slice s) const {
  auto it = index_.find(std::string(s.data(), s.size()));
  return it == index_.end() ? -1 : static_cast<int64_t>(it->second);
}

void StringDictionary::Serialize(Buffer* out) const {
  PutVarint64(out, entries_.size());
  for (const std::string& e : entries_) {
    PutLengthPrefixed(out, e);
  }
}

Status StringDictionary::Deserialize(Slice* input) {
  entries_.clear();
  index_.clear();
  uint64_t count;
  COLMR_RETURN_IF_ERROR(GetVarint64(input, &count));
  if (count > input->size()) {
    return Status::Corruption("dictionary count exceeds remaining input");
  }
  entries_.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    Slice entry;
    COLMR_RETURN_IF_ERROR(GetLengthPrefixed(input, &entry));
    entries_.emplace_back(entry.data(), entry.size());
    index_.emplace(entries_.back(), static_cast<uint32_t>(i));
  }
  return Status::OK();
}

size_t StringDictionary::SerializedSize() const {
  size_t total = VarintLength(entries_.size());
  for (const std::string& e : entries_) {
    total += VarintLength(e.size()) + e.size();
  }
  return total;
}

}  // namespace colmr

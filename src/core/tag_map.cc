#include "core/tag_map.h"

#include <algorithm>
#include <unordered_set>

namespace polysse {

Result<TagMap> TagMap::Build(const std::vector<std::string>& tags,
                             const Options& options,
                             const DeterministicPrf& prf) {
  std::unordered_set<std::string> distinct;
  for (const std::string& tag : tags) {
    if (!distinct.insert(tag).second)
      return Status::InvalidArgument("TagMap: duplicate tag '" + tag + "'");
  }
  TagMap out;
  RETURN_IF_ERROR(out.Extend(tags, options, prf));
  return out;
}

Status TagMap::Extend(const std::vector<std::string>& tags,
                      const Options& options, const DeterministicPrf& prf) {
  std::vector<uint64_t> pool;
  uint64_t max_value = 0;
  if (!options.allowed_values.empty()) {
    pool = options.allowed_values;
    std::sort(pool.begin(), pool.end());
    pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
    for (uint64_t v : pool) {
      if (v == 0)
        return Status::InvalidArgument("TagMap: value 0 is reserved");
      if (options.max_value != 0 && v > options.max_value)
        return Status::InvalidArgument(
            "TagMap: allowed value exceeds max_value");
    }
    max_value = options.max_value != 0 ? options.max_value : pool.back();
  } else {
    if (options.max_value == 0)
      return Status::InvalidArgument(
          "TagMap: max_value (or an allowed_values list) is required");
    max_value = options.max_value;
  }
  if (!to_value_.empty() && max_value != max_value_)
    return Status::InvalidArgument(
        "TagMap: extension options disagree with the map's value range");

  std::vector<std::string> fresh;
  std::unordered_set<std::string> fresh_seen;
  for (const std::string& tag : tags) {
    if (!to_value_.count(tag) && fresh_seen.insert(tag).second)
      fresh.push_back(tag);
  }
  const uint64_t capacity =
      pool.empty() ? max_value : static_cast<uint64_t>(pool.size());
  if (to_value_.size() + fresh.size() > capacity)
    return Status::InvalidArgument(
        "TagMap: alphabet of " + std::to_string(to_value_.size() + fresh.size()) +
        " tags does not fit into " + std::to_string(capacity) +
        " available values — choose a larger p / modulus");

  // Work on a copy so a sampler failure leaves the map untouched. The
  // sampler stream restarts from the label on every extension; earlier
  // draws are occupied and rejected, so later extensions deterministically
  // continue along the same pseudorandom sequence.
  TagMap next = *this;
  next.max_value_ = max_value;
  ChaChaRng rng = prf.Stream("tagmap/assignment");
  std::unordered_set<uint64_t> used;
  used.reserve(next.to_tag_.size());
  for (const auto& [value, tag] : next.to_tag_) used.insert(value);
  for (const std::string& tag : fresh) {
    // Rejection-sample an unused value; with load <= 1 the expected number
    // of draws per tag is below 1/(1 - load) and bounded by the guard.
    uint64_t value = 0;
    int guard = 0;
    do {
      value = pool.empty() ? 1 + rng.NextBelow(next.max_value_)
                           : pool[rng.NextBelow(pool.size())];
      if (++guard > 100000)
        return Status::Internal("TagMap: sampler failed to find a free value");
    } while (used.count(value));
    used.insert(value);
    next.to_value_[tag] = value;
    next.to_tag_[value] = tag;
  }
  *this = std::move(next);
  return Status::Ok();
}

Result<TagMap> TagMap::FromExplicit(
    const std::vector<std::pair<std::string, uint64_t>>& pairs) {
  TagMap out;
  for (const auto& [tag, value] : pairs) {
    if (value == 0) return Status::InvalidArgument("TagMap: value 0 reserved");
    if (out.to_value_.count(tag))
      return Status::InvalidArgument("TagMap: duplicate tag '" + tag + "'");
    if (out.to_tag_.count(value))
      return Status::InvalidArgument("TagMap: duplicate value " +
                                     std::to_string(value));
    out.to_value_[tag] = value;
    out.to_tag_[value] = tag;
    out.max_value_ = std::max(out.max_value_, value);
  }
  return out;
}

Result<uint64_t> TagMap::Value(std::string_view tag) const {
  auto it = to_value_.find(std::string(tag));
  if (it == to_value_.end())
    return Status::NotFound("tag '" + std::string(tag) + "' is not mapped");
  return it->second;
}

Result<std::string> TagMap::Tag(uint64_t value) const {
  auto it = to_tag_.find(value);
  if (it == to_tag_.end())
    return Status::NotFound("value " + std::to_string(value) +
                            " is not assigned");
  return it->second;
}

bool TagMap::Contains(std::string_view tag) const {
  return to_value_.count(std::string(tag)) > 0;
}

std::vector<std::pair<std::string, uint64_t>> TagMap::Entries() const {
  std::vector<std::pair<std::string, uint64_t>> out(to_value_.begin(),
                                                    to_value_.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  return out;
}

void TagMap::Serialize(ByteWriter* out) const {
  out->PutVarint64(max_value_);
  out->PutVarint64(to_value_.size());
  for (const auto& [tag, value] : Entries()) {
    out->PutLengthPrefixedString(tag);
    out->PutVarint64(value);
  }
}

Result<TagMap> TagMap::Deserialize(ByteReader* in) {
  TagMap out;
  ASSIGN_OR_RETURN(out.max_value_, in->GetVarint64());
  ASSIGN_OR_RETURN(uint64_t n, in->GetVarint64());
  for (uint64_t i = 0; i < n; ++i) {
    ASSIGN_OR_RETURN(std::string tag, in->GetLengthPrefixedString());
    ASSIGN_OR_RETURN(uint64_t value, in->GetVarint64());
    if (value == 0 || out.to_value_.count(tag) || out.to_tag_.count(value))
      return Status::Corruption("TagMap: invalid serialized entry");
    out.to_value_[tag] = value;
    out.to_tag_[value] = tag;
  }
  return out;
}

size_t TagMap::SerializedSize() const {
  ByteWriter w;
  Serialize(&w);
  return w.size();
}

}  // namespace polysse

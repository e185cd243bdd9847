#include "core/protocol.h"

namespace polysse {

namespace {
constexpr uint64_t kMaxVectorLen = 1ull << 24;  // wire sanity bound

Status BadLen(const char* what) {
  return Status::Corruption(std::string("absurd vector length in ") + what);
}

/// A claimed element count can never exceed the bytes left (every element
/// is at least one byte on the wire) — rejecting up front keeps a corrupted
/// length varint from turning into a giant allocation before the decode
/// loop hits end-of-buffer.
bool Plausible(uint64_t count, const ByteReader& in) {
  return count <= kMaxVectorLen && count <= in.remaining();
}
}  // namespace

void EvalRequest::Serialize(ByteWriter* out) const {
  out->PutVarint64(points.size());
  out->PutVarints(points);
  out->PutVarint64(node_ids.size());
  for (int32_t id : node_ids) out->PutVarint64(static_cast<uint32_t>(id));
}

Result<EvalRequest> EvalRequest::Deserialize(ByteReader* in) {
  EvalRequest out;
  ASSIGN_OR_RETURN(uint64_t np, in->GetVarint64());
  if (!Plausible(np, *in)) return BadLen("EvalRequest.points");
  out.points.resize(np);
  RETURN_IF_ERROR(in->GetVarints(out.points));
  ASSIGN_OR_RETURN(uint64_t nn, in->GetVarint64());
  if (!Plausible(nn, *in)) return BadLen("EvalRequest.node_ids");
  out.node_ids.resize(nn);
  for (uint64_t i = 0; i < nn; ++i) {
    ASSIGN_OR_RETURN(uint64_t id, in->GetVarint64());
    out.node_ids[i] = static_cast<int32_t>(id);
  }
  return out;
}

void EvalResponse::Serialize(ByteWriter* out) const {
  out->PutVarint64(entries.size());
  for (const EvalEntry& e : entries) {
    out->PutVarint64(static_cast<uint32_t>(e.node_id));
    out->PutVarint64(e.values.size());
    out->PutVarints(e.values);
    out->PutVarint64(e.children.size());
    for (int32_t c : e.children) out->PutVarint64(static_cast<uint32_t>(c));
    out->PutVarint64(static_cast<uint32_t>(e.subtree_size));
  }
}

Result<EvalResponse> EvalResponse::Deserialize(ByteReader* in) {
  EvalResponse out;
  ASSIGN_OR_RETURN(uint64_t n, in->GetVarint64());
  if (!Plausible(n, *in)) return BadLen("EvalResponse.entries");
  out.entries.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    EvalEntry& e = out.entries[i];
    ASSIGN_OR_RETURN(uint64_t id, in->GetVarint64());
    e.node_id = static_cast<int32_t>(id);
    ASSIGN_OR_RETURN(uint64_t nv, in->GetVarint64());
    if (!Plausible(nv, *in)) return BadLen("EvalEntry.values");
    e.values.resize(nv);
    RETURN_IF_ERROR(in->GetVarints(e.values));
    ASSIGN_OR_RETURN(uint64_t nc, in->GetVarint64());
    if (!Plausible(nc, *in)) return BadLen("EvalEntry.children");
    e.children.resize(nc);
    for (uint64_t k = 0; k < nc; ++k) {
      ASSIGN_OR_RETURN(uint64_t c, in->GetVarint64());
      e.children[k] = static_cast<int32_t>(c);
    }
    ASSIGN_OR_RETURN(uint64_t ss, in->GetVarint64());
    e.subtree_size = static_cast<int32_t>(ss);
  }
  return out;
}

void FetchRequest::Serialize(ByteWriter* out) const {
  out->PutU8(static_cast<uint8_t>(mode));
  out->PutVarint64(node_ids.size());
  for (int32_t id : node_ids) out->PutVarint64(static_cast<uint32_t>(id));
}

Result<FetchRequest> FetchRequest::Deserialize(ByteReader* in) {
  FetchRequest out;
  ASSIGN_OR_RETURN(uint8_t mode, in->GetU8());
  if (mode > 1) return Status::Corruption("FetchRequest: unknown mode");
  out.mode = static_cast<FetchMode>(mode);
  ASSIGN_OR_RETURN(uint64_t n, in->GetVarint64());
  if (!Plausible(n, *in)) return BadLen("FetchRequest.node_ids");
  out.node_ids.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    ASSIGN_OR_RETURN(uint64_t id, in->GetVarint64());
    out.node_ids[i] = static_cast<int32_t>(id);
  }
  return out;
}

void FetchResponse::Serialize(ByteWriter* out) const {
  // Full-polynomial responses run to hundreds of KiB: size the buffer once.
  size_t bytes = ByteWriter::VarintSize(entries.size());
  for (const FetchEntry& e : entries)
    bytes += ByteWriter::VarintSize(static_cast<uint32_t>(e.node_id)) +
             ByteWriter::VarintSize(e.payload.size()) + e.payload.size();
  out->Reserve(bytes);
  out->PutVarint64(entries.size());
  for (const FetchEntry& e : entries) {
    out->PutVarint64(static_cast<uint32_t>(e.node_id));
    out->PutLengthPrefixed(e.payload);
  }
}

Result<FetchResponse> FetchResponse::Deserialize(ByteReader* in) {
  FetchResponse out;
  ASSIGN_OR_RETURN(uint64_t n, in->GetVarint64());
  if (!Plausible(n, *in)) return BadLen("FetchResponse.entries");
  out.entries.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    ASSIGN_OR_RETURN(uint64_t id, in->GetVarint64());
    out.entries[i].node_id = static_cast<int32_t>(id);
    ASSIGN_OR_RETURN(out.entries[i].payload, in->GetLengthPrefixed());
  }
  return out;
}

void AddDocRequest::Serialize(ByteWriter* out) const {
  out->PutVarint64(doc_id);
  out->PutVarint64(static_cast<uint32_t>(base));
  out->PutLengthPrefixed(store_bytes);
}

Result<AddDocRequest> AddDocRequest::Deserialize(ByteReader* in) {
  AddDocRequest out;
  ASSIGN_OR_RETURN(out.doc_id, in->GetVarint64());
  ASSIGN_OR_RETURN(uint64_t base, in->GetVarint64());
  if (base > static_cast<uint64_t>(INT32_MAX))
    return Status::Corruption("AddDocRequest: base exceeds the id space");
  out.base = static_cast<int32_t>(base);
  // GetLengthPrefixed bounds the claimed length by the bytes actually left.
  ASSIGN_OR_RETURN(out.store_bytes, in->GetLengthPrefixed());
  return out;
}

void RemoveDocRequest::Serialize(ByteWriter* out) const {
  out->PutVarint64(doc_id);
}

Result<RemoveDocRequest> RemoveDocRequest::Deserialize(ByteReader* in) {
  RemoveDocRequest out;
  ASSIGN_OR_RETURN(out.doc_id, in->GetVarint64());
  return out;
}

void AdminAck::Serialize(ByteWriter* out) const {
  out->PutVarint64(doc_count);
  out->PutVarint64(node_count);
}

Result<AdminAck> AdminAck::Deserialize(ByteReader* in) {
  AdminAck out;
  ASSIGN_OR_RETURN(out.doc_count, in->GetVarint64());
  ASSIGN_OR_RETURN(out.node_count, in->GetVarint64());
  return out;
}

void ExportDocRequest::Serialize(ByteWriter* out) const {
  out->PutVarint64(doc_id);
}

Result<ExportDocRequest> ExportDocRequest::Deserialize(ByteReader* in) {
  ExportDocRequest out;
  ASSIGN_OR_RETURN(out.doc_id, in->GetVarint64());
  return out;
}

void ExportDocResponse::Serialize(ByteWriter* out) const {
  out->PutVarint64(static_cast<uint32_t>(base));
  out->PutLengthPrefixed(store_bytes);
}

Result<ExportDocResponse> ExportDocResponse::Deserialize(ByteReader* in) {
  ExportDocResponse out;
  ASSIGN_OR_RETURN(uint64_t base, in->GetVarint64());
  if (base > static_cast<uint64_t>(INT32_MAX))
    return Status::Corruption("ExportDocResponse: base exceeds the id space");
  out.base = static_cast<int32_t>(base);
  // GetLengthPrefixed bounds the claimed length by the bytes actually left.
  ASSIGN_OR_RETURN(out.store_bytes, in->GetLengthPrefixed());
  return out;
}

void RebaseDocRequest::Serialize(ByteWriter* out) const {
  out->PutVarint64(doc_id);
  out->PutVarint64(static_cast<uint32_t>(new_base));
}

Result<RebaseDocRequest> RebaseDocRequest::Deserialize(ByteReader* in) {
  RebaseDocRequest out;
  ASSIGN_OR_RETURN(out.doc_id, in->GetVarint64());
  ASSIGN_OR_RETURN(uint64_t base, in->GetVarint64());
  if (base > static_cast<uint64_t>(INT32_MAX))
    return Status::Corruption("RebaseDocRequest: base exceeds the id space");
  out.new_base = static_cast<int32_t>(base);
  return out;
}

void PingRequest::Serialize(ByteWriter* out) const {
  out->PutVarint64(nonce);
}

Result<PingRequest> PingRequest::Deserialize(ByteReader* in) {
  PingRequest out;
  ASSIGN_OR_RETURN(out.nonce, in->GetVarint64());
  return out;
}

void PingResponse::Serialize(ByteWriter* out) const {
  out->PutVarint64(nonce);
  out->PutVarint64(doc_count);
  out->PutVarint64(node_count);
}

Result<PingResponse> PingResponse::Deserialize(ByteReader* in) {
  PingResponse out;
  ASSIGN_OR_RETURN(out.nonce, in->GetVarint64());
  ASSIGN_OR_RETURN(out.doc_count, in->GetVarint64());
  ASSIGN_OR_RETURN(out.node_count, in->GetVarint64());
  return out;
}

}  // namespace polysse

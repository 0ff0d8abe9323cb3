#include "storage/page_codec.h"

#include <cstring>

namespace pbitree {

namespace {

/// Cap of the raw record layouts: the seed layout (payload offset 0)
/// and the kFoRDelta raw16 fallback (payload offset 1) both hold 255.
constexpr size_t kRawMaxRecords = kCodecPayloadSize / 16;
constexpr size_t kRaw16MaxRecords = (kCodecPayloadSize - 1) / 16;
static_assert(kRawMaxRecords == 255 && kRaw16MaxRecords == 255);

size_t VarintLen(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

void PutVarint(uint64_t v, char** p) {
  auto* out = reinterpret_cast<uint8_t*>(*p);
  while (v >= 0x80) {
    *out++ = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *out++ = static_cast<uint8_t>(v);
  *p = reinterpret_cast<char*>(out);
}

/// False on a truncated or over-long (> 10 byte) varint.
bool GetVarint(const char** p, const char* limit, uint64_t* v) {
  const auto* in = reinterpret_cast<const uint8_t*>(*p);
  const auto* end = reinterpret_cast<const uint8_t*>(limit);
  uint64_t out = 0;
  for (int shift = 0; shift < 70 && in < end; shift += 7) {
    uint8_t byte = *in++;
    out |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *p = reinterpret_cast<const char*>(in);
      *v = out;
      return true;
    }
  }
  return false;
}

/// Zigzag of the (possibly negative) code delta. Codes are < 2^63, so
/// the unsigned subtraction wraps to a representable signed delta.
uint64_t ZigZag(uint64_t cur, uint64_t prev) {
  auto d = static_cast<int64_t>(cur - prev);
  return (static_cast<uint64_t>(d) << 1) ^ static_cast<uint64_t>(d >> 63);
}

uint64_t UnZigZag(uint64_t z) {
  return (z >> 1) ^ (~(z & 1) + 1);
}

class RawPageCodec final : public PageCodec {
 public:
  PageCodecKind kind() const override { return PageCodecKind::kRaw; }
  size_t max_records() const override { return kRawMaxRecords; }

  Status Encode(std::span<const ElementRecord> recs,
                char* payload) const override {
    if (recs.size() > kRawMaxRecords) {
      return Status::InvalidArgument("raw codec: too many records for page");
    }
    std::memset(payload, 0, kCodecPayloadSize);
    // An empty span may carry a null data(); memcpy from null is
    // undefined even for zero bytes.
    if (!recs.empty()) {
      std::memcpy(payload, recs.data(), recs.size() * sizeof(ElementRecord));
    }
    return Status::OK();
  }

  Status Decode(const char* payload, size_t count,
                ElementRecord* out) const override {
    if (count > kRawMaxRecords) {
      return Status::Corruption("raw codec: page count out of range");
    }
    if (count > 0) std::memcpy(out, payload, count * sizeof(ElementRecord));
    return Status::OK();
  }
};

class FoRDeltaPageCodec final : public PageCodec {
 public:
  PageCodecKind kind() const override { return PageCodecKind::kFoRDelta; }
  size_t max_records() const override { return kMaxCodecRecordsPerPage; }

  Status Encode(std::span<const ElementRecord> recs,
                char* payload) const override {
    FoRDeltaSizer sizer;
    for (const ElementRecord& rec : recs) sizer.Add(rec);
    const size_t delta_bytes = sizer.bytes();
    const size_t raw_bytes = 1 + recs.size() * sizeof(ElementRecord);
    std::memset(payload, 0, kCodecPayloadSize);
    if (delta_bytes <= kCodecPayloadSize && delta_bytes < raw_bytes) {
      char* p = payload;
      *p++ = 1;  // mode: delta
      uint64_t prev = 0;
      for (size_t i = 0; i < recs.size(); ++i) {
        if (i == 0) {
          std::memcpy(p, &recs[i].code, sizeof(uint64_t));
          p += sizeof(uint64_t);
        } else {
          PutVarint(ZigZag(recs[i].code, prev), &p);
        }
        prev = recs[i].code;
        PutVarint(recs[i].tag, &p);
        PutVarint(recs[i].doc, &p);
      }
      return Status::OK();
    }
    if (recs.size() <= kRaw16MaxRecords) {
      payload[0] = 0;  // mode: raw16 fallback
      if (!recs.empty()) {
        std::memcpy(payload + 1, recs.data(),
                    recs.size() * sizeof(ElementRecord));
      }
      return Status::OK();
    }
    return Status::InvalidArgument(
        "for-delta codec: records do not fit one page");
  }

  Status Decode(const char* payload, size_t count,
                ElementRecord* out) const override {
    if (count == 0) return Status::OK();
    if (count > kMaxCodecRecordsPerPage) {
      return Status::Corruption("for-delta codec: page count out of range");
    }
    const char* p = payload;
    const char* limit = payload + kCodecPayloadSize;
    const uint8_t mode = static_cast<uint8_t>(*p++);
    if (mode == 0) {
      if (count > kRaw16MaxRecords) {
        return Status::Corruption("for-delta codec: raw16 count too large");
      }
      std::memcpy(out, p, count * sizeof(ElementRecord));
      return Status::OK();
    }
    if (mode != 1) {
      return Status::Corruption("for-delta codec: unknown page mode");
    }
    uint64_t prev = 0;
    for (size_t i = 0; i < count; ++i) {
      uint64_t code;
      if (i == 0) {
        if (p + sizeof(uint64_t) > limit) {
          return Status::Corruption("for-delta codec: truncated page");
        }
        std::memcpy(&code, p, sizeof(uint64_t));
        p += sizeof(uint64_t);
      } else {
        uint64_t z;
        if (!GetVarint(&p, limit, &z)) {
          return Status::Corruption("for-delta codec: truncated page");
        }
        code = prev + UnZigZag(z);
      }
      uint64_t tag, doc;
      if (!GetVarint(&p, limit, &tag) || !GetVarint(&p, limit, &doc) ||
          tag > UINT32_MAX || doc > UINT32_MAX) {
        return Status::Corruption("for-delta codec: truncated page");
      }
      out[i].code = code;
      out[i].tag = static_cast<uint32_t>(tag);
      out[i].doc = static_cast<uint32_t>(doc);
      prev = code;
    }
    return Status::OK();
  }
};

}  // namespace

const char* PageCodecName(PageCodecKind kind) {
  switch (kind) {
    case PageCodecKind::kRaw:
      return "raw";
    case PageCodecKind::kFoRDelta:
      return "for-delta";
  }
  return "unknown";
}

const PageCodec* GetPageCodec(PageCodecKind kind) {
  static const RawPageCodec raw;
  static const FoRDeltaPageCodec for_delta;
  return kind == PageCodecKind::kFoRDelta
             ? static_cast<const PageCodec*>(&for_delta)
             : static_cast<const PageCodec*>(&raw);
}

size_t FoRDeltaSizer::BytesWith(const ElementRecord& rec) const {
  size_t add = VarintLen(rec.tag) + VarintLen(rec.doc);
  add += count_ == 0 ? sizeof(uint64_t) : VarintLen(ZigZag(rec.code, prev_code_));
  return bytes_ + add;
}

void FoRDeltaSizer::Add(const ElementRecord& rec) {
  bytes_ = BytesWith(rec);
  prev_code_ = rec.code;
  ++count_;
}

bool FoRDeltaSizer::CanHold(const ElementRecord& rec) const {
  return BytesWith(rec) <= kCodecPayloadSize || count_ + 1 <= kRaw16MaxRecords;
}

}  // namespace pbitree

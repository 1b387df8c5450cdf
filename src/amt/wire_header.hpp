// The parcelport *header message* format shared by the MPI and LCI
// parcelports (paper §3.1/§3.2): per HPX message, one protocol message
// carrying the metadata the receiver needs — the base tag for follow-up
// messages, the non-zero-copy chunk size, and the existence/size of the
// transmission chunk — plus optional piggybacked transmission and
// non-zero-copy chunks when they fit under the maximum header size (set to
// the zero-copy serialization threshold; 512 bytes fixed in the "original"
// MPI parcelport variant). Also the LCI parcelport's one eager frame, the
// batch frame below.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "amt/message.hpp"
#include "common/crc32.hpp"
#include "common/integrity.hpp"

namespace amt {

struct WireHeader {
  std::uint32_t tag = 0;           // base tag; follow-up i uses tag + i
  std::uint16_t num_zchunks = 0;
  std::uint8_t piggy_main = 0;     // non-zero-copy chunk rides in the header
  std::uint8_t piggy_tchunk = 0;   // transmission chunk rides in the header
  std::uint64_t main_size = 0;
  /// Per-destination-channel generation number: each sender stamps headers
  /// to one peer with consecutive values. Delivery may reorder (multi-rail)
  /// so receivers only use it to detect duplicated headers — a duplicate
  /// would double-deliver a parcel, which is an integrity failure. 32 bits
  /// wide so the stale-duplicate horizon below is unambiguous over any
  /// realistic flood length (a 16-bit counter aliased a 2^16-delayed
  /// duplicate onto a small forward delta).
  std::uint32_t seq = 0;
  /// CRC-32 over the entire encoded header message (this field as zero),
  /// verified by decode_header — corruption fail-fasts rather than
  /// deserializing garbage.
  std::uint32_t crc = 0;
};
static_assert(sizeof(WireHeader) == 24);

/// Tracks recently seen per-source header generation numbers; accept()
/// returns false for a duplicate. Reordering-tolerant: arrivals up to
/// kStaleHorizon generations behind the newest but outside the exact 64-wide
/// bitmap are presumed legitimate stragglers; anything older than the
/// horizon is an epoch-stale duplicate and is rejected. With 32-bit
/// sequence numbers the horizon test cannot alias across a counter wrap
/// within any reachable flood length.
class HeaderSeqTracker {
 public:
  /// Arrivals this far (or further) behind the newest seq are rejected as
  /// stale duplicates rather than presumed stragglers. Far above any
  /// plausible in-flight reordering depth, far below the wrap distance.
  static constexpr std::uint32_t kStaleHorizon = 1u << 15;

  bool accept(std::uint32_t seq) {
    const std::uint32_t forward = seq - highest_;  // modular distance ahead
    if (forward != 0 && forward < 0x80000000u) {
      mask_ = forward >= 64 ? 0 : mask_ << forward;
      mask_ |= 1ull;
      highest_ = seq;
      return true;
    }
    const std::uint32_t back = highest_ - seq;  // modular distance behind
    if (back >= kStaleHorizon) return false;  // epoch-stale duplicate
    if (back >= 64) return true;              // straggler beyond the bitmap
    const std::uint64_t bit = 1ull << back;
    if ((mask_ & bit) != 0) return false;
    mask_ |= bit;
    return true;
  }

 private:
  std::uint32_t highest_ = 0xFFFFFFFFu;  // so the first seq (0) is "newer"
  std::uint64_t mask_ = 0;               // bit i: (highest_ - i) seen
};

/// How a message will be split into header + follow-ups.
struct HeaderPlan {
  bool piggy_main = false;
  bool piggy_tchunk = false;

  /// Follow-up message order (paper §3.1): non-zero-copy chunk (unless
  /// piggybacked), transmission chunk (if present and not piggybacked),
  /// then one message per zero-copy chunk.
  std::size_t num_followups(const OutMessage& msg) const {
    std::size_t n = msg.zchunks.size();
    if (!piggy_main) ++n;
    if (msg.has_zchunks() && !piggy_tchunk) ++n;
    return n;
  }

  /// Improved-parcelport policy: dynamic header buffer up to `max_header`
  /// bytes, piggybacking both chunks when possible, else just the
  /// transmission chunk.
  static HeaderPlan decide(const OutMessage& msg, std::size_t max_header) {
    const std::size_t tchunk_size =
        msg.has_zchunks() ? msg.zchunks.size() * sizeof(std::uint64_t) : 0;
    HeaderPlan plan;
    if (sizeof(WireHeader) + tchunk_size + msg.main_chunk.size() <=
        max_header) {
      plan.piggy_main = true;
      plan.piggy_tchunk = msg.has_zchunks();
    } else if (msg.has_zchunks() &&
               sizeof(WireHeader) + tchunk_size <= max_header) {
      plan.piggy_tchunk = true;
    }
    return plan;
  }

  /// Original-parcelport policy (paper §3.1 "the original version"): fixed
  /// 512-byte header that can only piggyback the non-zero-copy chunk.
  static HeaderPlan decide_original(const OutMessage& msg,
                                    std::size_t max_header = 512) {
    HeaderPlan plan;
    plan.piggy_main =
        sizeof(WireHeader) + msg.main_chunk.size() <= max_header;
    return plan;
  }
};

/// Exact wire size of the header message under `plan`.
inline std::size_t encoded_header_size(const OutMessage& msg,
                                       const HeaderPlan& plan) {
  std::size_t size = sizeof(WireHeader);
  if (plan.piggy_tchunk) size += msg.zchunks.size() * sizeof(std::uint64_t);
  if (plan.piggy_main) size += msg.main_chunk.size();
  return size;
}

/// Serializes header fields (+ piggybacked chunks) into `out`, which must
/// have capacity >= encoded_header_size(). Returns the bytes written. `tag`
/// is the follow-up base tag. Used directly by the LCI parcelport to
/// assemble the header in an LCI packet buffer without an extra copy.
inline std::size_t encode_header_to(const OutMessage& msg,
                                    const HeaderPlan& plan, std::uint32_t tag,
                                    std::uint32_t seq, std::byte* out,
                                    std::size_t capacity) {
  WireHeader header;
  header.tag = tag;
  assert(msg.zchunks.size() < 65536);  // num_zchunks is u16 on the wire
  header.num_zchunks = static_cast<std::uint16_t>(msg.zchunks.size());
  header.main_size = msg.main_chunk.size();
  header.piggy_main = plan.piggy_main ? 1 : 0;
  header.piggy_tchunk = plan.piggy_tchunk ? 1 : 0;
  header.seq = seq;
  header.crc = 0;

  const std::size_t total = encoded_header_size(msg, plan);
  assert(total <= capacity);
  (void)capacity;
  std::memcpy(out, &header, sizeof(header));
  std::size_t offset = sizeof(header);
  if (plan.piggy_tchunk) {
    // Encode the transmission chunk in place: no temporary vector on the
    // piggybacked (eager) path, which must stay allocation-free.
    for (const ZChunk& chunk : msg.zchunks) {
      const std::uint64_t size = chunk.size;
      std::memcpy(out + offset, &size, sizeof(size));
      offset += sizeof(size);
    }
  }
  if (plan.piggy_main && !msg.main_chunk.empty()) {
    std::memcpy(out + offset, msg.main_chunk.data(), msg.main_chunk.size());
  }
  // Checksum the full encoded message (crc field as zero) and patch it in.
  const std::uint32_t crc = common::crc32(out, total);
  std::memcpy(out + offsetof(WireHeader, crc), &crc, sizeof(crc));
  return total;
}

/// Convenience: encode into a freshly sized vector (MPI parcelport path).
inline void encode_header(const OutMessage& msg, const HeaderPlan& plan,
                          std::uint32_t tag, std::uint32_t seq,
                          std::vector<std::byte>& out) {
  out.resize(encoded_header_size(msg, plan));
  encode_header_to(msg, plan, tag, seq, out.data(), out.size());
}

// ---------------------------------------------------------------------------
// Batch frame: the one eager frame of the LCI parcelport. A parcel small
// enough to fit one medium message travels as a count-1 frame straight away
// (the small-parcel fast path, modeled on hpx5's put-with-completion); under
// backpressure amt::Aggregator coalesces several parcels for one destination
// into a longer one. Either way the receiver dispatches it straight from a
// handler completion — no follow-up tags, no ReceiverConnection — and one
// frame costs one injection, one CRC-32 and one per-channel seq.
//
// Layout: [BatchHeader][entry 0]...[entry count-1]; each entry is
// [u32 num_zchunks][u32 main_size][u64 zsize x num_zchunks][main][z0][z1]...
// Entries are self-delimiting, so a count-1 frame costs 24 B over its
// payload bytes.
// ---------------------------------------------------------------------------

inline constexpr std::uint32_t kBatchMagic = 0xA66B47C4u;

struct BatchHeader {
  std::uint32_t magic = kBatchMagic;  // frame-kind guard
  std::uint32_t count = 0;            // parcels in this frame (>= 1)
  /// Same per-destination-channel generation counter as WireHeader::seq —
  /// one seq per frame, not per parcel.
  std::uint32_t seq = 0;
  /// CRC-32 over the entire encoded frame (this field as zero).
  std::uint32_t crc = 0;
};
static_assert(sizeof(BatchHeader) == 16);

struct BatchEntryHeader {
  std::uint32_t num_zchunks = 0;
  std::uint32_t main_size = 0;
};
static_assert(sizeof(BatchEntryHeader) == 8);

/// Smallest possible frame: the header plus one empty entry. `agg<BYTES>`
/// thresholds below this are rejected at config parse — they could never
/// fit even a zero-payload parcel.
inline constexpr std::size_t kMinAggFrameBytes =
    sizeof(BatchHeader) + sizeof(BatchEntryHeader);

/// Bytes one message adds to a frame: its entry header, zchunk sizes and
/// every payload byte.
inline std::size_t batch_entry_size(const OutMessage& msg) {
  std::size_t size = sizeof(BatchEntryHeader) +
                     msg.zchunks.size() * sizeof(std::uint64_t) +
                     msg.main_chunk.size();
  for (const ZChunk& chunk : msg.zchunks) size += chunk.size;
  return size;
}

/// Size of the frame carrying `count` messages.
inline std::size_t batch_frame_size(const OutMessage* const* msgs,
                                    std::size_t count) {
  std::size_t size = sizeof(BatchHeader);
  for (std::size_t i = 0; i < count; ++i) size += batch_entry_size(*msgs[i]);
  return size;
}

/// Size of the count-1 frame carrying `msg` alone.
inline std::size_t batch_frame_size(const OutMessage& msg) {
  return sizeof(BatchHeader) + batch_entry_size(msg);
}

/// Serializes `count` messages into one frame at `out` (capacity must be >=
/// batch_frame_size). Returns the bytes written. Allocation-free: the LCI
/// parcelport encodes straight into a pool packet.
inline std::size_t encode_batch_to(const OutMessage* const* msgs,
                                   std::size_t count, std::uint32_t seq,
                                   std::byte* out, std::size_t capacity) {
  assert(count >= 1);
  BatchHeader header;
  header.count = static_cast<std::uint32_t>(count);
  header.seq = seq;
  header.crc = 0;

  const std::size_t total = batch_frame_size(msgs, count);
  assert(total <= capacity);
  (void)capacity;
  std::memcpy(out, &header, sizeof(header));
  std::size_t offset = sizeof(header);
  for (std::size_t i = 0; i < count; ++i) {
    const OutMessage& msg = *msgs[i];
    assert(msg.main_chunk.size() <= UINT32_MAX);  // main_size is u32
    BatchEntryHeader entry;
    entry.num_zchunks = static_cast<std::uint32_t>(msg.zchunks.size());
    entry.main_size = static_cast<std::uint32_t>(msg.main_chunk.size());
    std::memcpy(out + offset, &entry, sizeof(entry));
    offset += sizeof(entry);
    for (const ZChunk& chunk : msg.zchunks) {
      const std::uint64_t size = chunk.size;
      std::memcpy(out + offset, &size, sizeof(size));
      offset += sizeof(size);
    }
    // An empty vector's data() may be null, which memcpy must not see.
    if (!msg.main_chunk.empty()) {
      std::memcpy(out + offset, msg.main_chunk.data(), msg.main_chunk.size());
      offset += msg.main_chunk.size();
    }
    for (const ZChunk& chunk : msg.zchunks) {
      if (chunk.size == 0) continue;
      std::memcpy(out + offset, chunk.data, chunk.size);
      offset += chunk.size;
    }
  }
  assert(offset == total);
  const std::uint32_t crc = common::crc32(out, total);
  std::memcpy(out + offsetof(BatchHeader, crc), &crc, sizeof(crc));
  return total;
}

/// Decodes and *verifies* a frame in one bounds-checked walk: magic, CRC
/// over the full frame, a non-zero count, and every entry's declared sizes
/// lying inside the frame and accounting for it exactly. Returns the
/// verified header; nothing is copied, so the (single) dedup check can run
/// before any parcel is delivered. Anything inconsistent fail-fasts like
/// decode_header.
inline BatchHeader decode_batch(const std::byte* data, std::size_t size) {
  BatchHeader header;
  if (size < sizeof(BatchHeader)) {
    common::integrity_fail("batch frame truncated: ", size, " bytes < ",
                           sizeof(BatchHeader));
  }
  std::memcpy(&header, data, sizeof(BatchHeader));
  if (header.magic != kBatchMagic) {
    common::integrity_fail("batch frame bad magic: ", header.magic,
                           " size=", size);
  }
  const std::uint32_t zero = 0;
  std::uint32_t crc = common::crc32(data, offsetof(BatchHeader, crc));
  crc = common::crc32(&zero, sizeof(zero), crc);
  crc = common::crc32(data + sizeof(BatchHeader), size - sizeof(BatchHeader),
                      crc);
  if (crc != header.crc) {
    common::integrity_fail("batch frame CRC mismatch: stored=", header.crc,
                           " computed=", crc, " size=", size,
                           " seq=", header.seq, " count=", header.count);
  }
  // Every entry takes at least its entry header, which bounds the walk.
  if (header.count == 0 ||
      header.count > (size - sizeof(BatchHeader)) / sizeof(BatchEntryHeader)) {
    common::integrity_fail("batch frame bad count: ", header.count,
                           " entries in ", size, " bytes");
  }
  // `left` is what remains of the frame past `offset`; every declared size
  // is compared against it before it is consumed, so no sum can overflow.
  std::size_t offset = sizeof(BatchHeader);
  for (std::uint32_t i = 0; i < header.count; ++i) {
    std::size_t left = size - offset;
    BatchEntryHeader entry;
    if (left < sizeof(entry)) {
      common::integrity_fail("batch entry ", i, " overruns frame: header at ",
                             offset, " of ", size);
    }
    std::memcpy(&entry, data + offset, sizeof(entry));
    offset += sizeof(entry);
    left -= sizeof(entry);
    if (entry.num_zchunks > left / sizeof(std::uint64_t)) {
      common::integrity_fail("batch entry ", i, " overruns frame: ",
                             entry.num_zchunks, " zchunk sizes at ", offset,
                             " of ", size);
    }
    const std::byte* zsizes = data + offset;
    const std::size_t tchunk_size =
        static_cast<std::size_t>(entry.num_zchunks) * sizeof(std::uint64_t);
    offset += tchunk_size;
    left -= tchunk_size;
    if (entry.main_size > left) {
      common::integrity_fail("batch entry ", i, " overruns frame: main ",
                             entry.main_size, " bytes at ", offset, " of ",
                             size);
    }
    offset += entry.main_size;
    left -= entry.main_size;
    for (std::uint32_t z = 0; z < entry.num_zchunks; ++z) {
      std::uint64_t zsize = 0;
      std::memcpy(&zsize, zsizes + z * sizeof(zsize), sizeof(zsize));
      if (zsize > left) {
        common::integrity_fail("batch entry ", i, " overruns frame: zchunk ",
                               z, " of ", zsize, " bytes at ", offset, " of ",
                               size);
      }
      offset += zsize;
      left -= zsize;
    }
  }
  if (offset != size) {
    common::integrity_fail("batch frame size mismatch: declared ", offset,
                           " bytes, got ", size);
  }
  return header;
}

/// Hands every entry of a frame that decode_batch verified to
/// `deliver(InMessage&&)`, in frame order. Every entry but the last is
/// copied out; the last takes the arrival buffer itself, trimmed in place
/// to its main chunk, so a count-1 frame is received without a second
/// allocation or copy-out of its payload.
template <typename Deliver>
void take_batch_entries(std::vector<std::byte>&& frame, Rank source,
                        Deliver&& deliver) {
  std::uint32_t count = 0;
  std::memcpy(&count, frame.data() + offsetof(BatchHeader, count),
              sizeof(count));
  std::size_t offset = sizeof(BatchHeader);
  for (std::uint32_t i = 0; i < count; ++i) {
    BatchEntryHeader entry;
    std::memcpy(&entry, frame.data() + offset, sizeof(entry));
    const std::size_t zsizes = offset + sizeof(entry);
    const std::size_t main =
        zsizes + static_cast<std::size_t>(entry.num_zchunks) *
                     sizeof(std::uint64_t);
    offset = main + entry.main_size;
    InMessage in;
    in.source = source;
    in.zchunks.reserve(entry.num_zchunks);
    for (std::uint32_t z = 0; z < entry.num_zchunks; ++z) {
      std::uint64_t zsize = 0;
      std::memcpy(&zsize, frame.data() + zsizes + z * sizeof(zsize),
                  sizeof(zsize));
      in.zchunks.emplace_back(frame.data() + offset,
                              frame.data() + offset + zsize);
      offset += zsize;
    }
    if (i + 1 < count) {
      in.main_chunk.assign(frame.data() + main,
                           frame.data() + main + entry.main_size);
    } else {
      frame.resize(main + entry.main_size);
      frame.erase(frame.begin(),
                  frame.begin() + static_cast<std::ptrdiff_t>(main));
      in.main_chunk = std::move(frame);
    }
    deliver(std::move(in));
  }
}

/// Decoded header view (piggybacked chunks are copied out).
struct DecodedHeader {
  WireHeader fields;
  std::vector<std::byte> piggy_tchunk;  // valid if fields.piggy_tchunk
  std::vector<std::byte> piggy_main;    // valid if fields.piggy_main
};

/// Decodes and *verifies* a header message. Any inconsistency — CRC
/// mismatch, truncated buffer, size fields pointing past the end — means
/// corrupted wire data reached the decode stage (past all retransmit
/// protection), so this fail-fasts with a diagnostic dump instead of
/// returning garbage. All three parcelports decode through here.
inline DecodedHeader decode_header(const std::byte* data, std::size_t size) {
  DecodedHeader decoded;
  if (size < sizeof(WireHeader)) {
    common::integrity_fail("wire header truncated: ", size, " bytes < ",
                           sizeof(WireHeader));
  }
  std::memcpy(&decoded.fields, data, sizeof(WireHeader));
  // Recompute the CRC with the stored-crc bytes replaced by zero.
  const std::uint32_t zero = 0;
  std::uint32_t crc = common::crc32(data, offsetof(WireHeader, crc));
  crc = common::crc32(&zero, sizeof(zero), crc);
  crc = common::crc32(data + sizeof(WireHeader), size - sizeof(WireHeader),
                      crc);
  if (crc != decoded.fields.crc) {
    common::integrity_fail(
        "wire header CRC mismatch: stored=", decoded.fields.crc,
        " computed=", crc, " size=", size, " tag=", decoded.fields.tag,
        " seq=", decoded.fields.seq,
        " num_zchunks=", decoded.fields.num_zchunks,
        " main_size=", decoded.fields.main_size);
  }
  std::size_t offset = sizeof(WireHeader);
  if (decoded.fields.piggy_tchunk) {
    const std::size_t tchunk_size =
        static_cast<std::size_t>(decoded.fields.num_zchunks) *
        sizeof(std::uint64_t);
    if (tchunk_size > size - offset) {
      common::integrity_fail("wire header tchunk overruns message: ",
                             tchunk_size, " bytes at ", offset, " of ", size);
    }
    decoded.piggy_tchunk.assign(data + offset, data + offset + tchunk_size);
    offset += tchunk_size;
  }
  if (decoded.fields.piggy_main) {
    if (decoded.fields.main_size > size - offset) {
      common::integrity_fail("wire header main chunk overruns message: ",
                             decoded.fields.main_size, " bytes at ", offset,
                             " of ", size);
    }
    decoded.piggy_main.assign(data + offset,
                              data + offset + decoded.fields.main_size);
  }
  return decoded;
}

}  // namespace amt

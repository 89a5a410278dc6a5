// Wire codec for replication messages — the binary format tardisd peers
// speak on the wire. The paper's prototype shipped protobuf over Netty
// (§6.4); we use a hand-rolled length-prefixed framing in the same
// varint/length-prefix style as the commit log and WAL.
//
// The same framing stores a 2PC participant's twopc.log: one kPrepare or
// kDecide record per frame (see src/cluster/twopc.h and DESIGN.md §10).
// The router and the partition daemons themselves speak the line
// protocol, not these frames.
//
// Frame layout (all fixed-width fields little-endian):
//
//   offset  size  field
//   0       4     payload length N (bytes; must be <= kMaxWirePayload)
//   4       4     masked CRC-32C of the payload (MaskCrc, as in the WAL)
//   8       N     payload
//
// Payload layout:
//
//   offset  size    field
//   0       1       wire version (kWireVersion)
//   1       1       message type (ReplMessage::Type)
//   2       varint  from_site
//   ...             type-specific body (see wire.cc)
//
// Decoding is strictly bounds-checked and total: any truncated, oversized,
// corrupted or trailing-byte input yields Status::Corruption — never a
// crash, throw, or over-read. A version byte ahead of the type byte leaves
// room for forward evolution (unknown versions are rejected loudly rather
// than misparsed).

#ifndef TARDIS_NET_WIRE_H_
#define TARDIS_NET_WIRE_H_

#include <cstdint>
#include <string>

#include "replication/message.h"
#include "util/slice.h"
#include "util/status.h"

namespace tardis {

/// Current wire format version. Bump on incompatible payload changes
/// (twopc.log records carry it too, so a bump orphans existing logs).
/// v2: kPrepare/kDecide carry a trailing distributed-trace context
/// (trace_id, trace_span, sampled) — see DESIGN.md §7.
/// v3: kPrepare carries an exactly-once session tag after the trace
/// context, and CommitRecord carries the tag of the commit it replicates
/// (DESIGN.md §13).
inline constexpr uint8_t kWireVersion = 3;

/// Frame header: u32 length + u32 masked CRC.
inline constexpr size_t kWireHeaderBytes = 8;

/// Upper bound on a payload; anything larger is rejected as corrupt
/// before buffering (protects the daemon from hostile length prefixes).
inline constexpr uint32_t kMaxWirePayload = 16u << 20;  // 16 MiB

/// Serializes `msg` into a version-prefixed payload (no frame header),
/// appending to *out.
void EncodeReplMessage(const ReplMessage& msg, std::string* out);

/// Inverse of EncodeReplMessage. The whole payload must be consumed;
/// trailing bytes are corruption.
Status DecodeReplMessage(Slice payload, ReplMessage* out);

/// Serializes `msg` as a complete frame (header + payload), appending to
/// *out. This is what goes on the socket.
void EncodeFrame(const ReplMessage& msg, std::string* out);

/// Tries to extract one complete frame from the front of `buffer`
/// (a stream reassembly buffer).
///   - Needs more bytes: returns OK with *consumed == 0.
///   - Complete valid frame: decodes into *out, sets *consumed to the
///     total frame size (header + payload), returns OK.
///   - Malformed (oversized length, CRC mismatch, undecodable payload):
///     returns Status::Corruption; the connection should be dropped.
Status DecodeFrame(Slice buffer, ReplMessage* out, size_t* consumed);

}  // namespace tardis

#endif  // TARDIS_NET_WIRE_H_

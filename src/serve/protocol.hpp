#pragma once
// Wire protocol for the recommender service (docs/performance.md,
// "Serving"). Frames follow the repo's binary-framing discipline
// (common/binio.hpp): little-endian fixed-width fields, every count
// validated against the bytes actually present BEFORE any allocation
// sized from it, and a word-folded FNV trailer digest over every byte
// before it — so any single-byte corruption in transit surfaces as a
// thrown airch::ContractViolation, never as a garbage recommendation.
//
// A frame travels on the socket as  [u32 body length][body]  and the body
// is:
//
//   u32 magic 'ARSV'   u32 version   u32 type
//   type-specific payload
//   u64 trailer digest (over every body byte before it)
//
//   kQuery: u32 case id, u32 N, u32 F, then N*F i64 features (row-major)
//   kReply: u32 N, then N i32 labels
//   kError: u32 byte count, then that many message bytes
//
// The protocol is deliberately request/response-per-frame: the SERVER
// answers requests that queue on a busy model with one packed pass
// (serve/server.hpp); clients stay oblivious.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace airch::serve {

inline constexpr std::uint32_t kMagic = 0x41525356;  // 'ARSV'
inline constexpr std::uint32_t kVersion = 1;

enum class FrameType : std::uint32_t {
  kQuery = 1,
  kReply = 2,
  kError = 3,
};

/// Hard caps, enforced on both encode and decode: a malformed or hostile
/// length field can never drive an allocation past these.
inline constexpr std::size_t kMaxQueriesPerFrame = 4096;
inline constexpr std::size_t kMaxFeaturesPerQuery = 64;
inline constexpr std::size_t kMaxErrorBytes = 1024;
/// Largest legal body: a full query frame plus header and trailer.
inline constexpr std::size_t kMaxFrameBytes =
    64 + kMaxQueriesPerFrame * kMaxFeaturesPerQuery * sizeof(std::int64_t);

/// One client request: N same-arity feature vectors for one case study.
struct QueryFrame {
  int case_id = 0;
  std::size_t num_features = 0;
  /// Row-major N x num_features.
  std::vector<std::int64_t> features;

  std::size_t num_queries() const {
    return num_features == 0 ? 0 : features.size() / num_features;
  }
};

/// Decoded frame: exactly one of the payloads is meaningful per `type`.
struct Frame {
  FrameType type = FrameType::kError;
  QueryFrame query;                  ///< kQuery
  std::vector<std::int32_t> labels;  ///< kReply
  std::string error;                 ///< kError
};

/// Encoders produce a complete body (header + payload + trailer digest),
/// ready for the u32-length-prefixed socket framing (serve/socket.hpp).
/// Each AIRCH_CHECKs its caps, so an over-sized request dies in the
/// client process instead of on the wire.
std::vector<unsigned char> encode_query(const QueryFrame& q);
std::vector<unsigned char> encode_reply(const std::vector<std::int32_t>& labels);
std::vector<unsigned char> encode_error(const std::string& message);

/// Decodes and validates one body: magic, version, caps, exact length,
/// and the trailer digest. Throws airch::ContractViolation on any
/// violation.
Frame decode_frame(const unsigned char* data, std::size_t n);

}  // namespace airch::serve

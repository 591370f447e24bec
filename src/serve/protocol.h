// The serve wire protocol: newline-delimited JSON over TCP.
//
// Grammar (one object per line; see DESIGN.md section 10):
//
//   request  := { "id": int|string,          // echoed back verbatim
//                 "op": string,              // operation name
//                 "params"?: object,         // op-specific arguments
//                 "deadline_ms"?: int }      // per-request deadline
//
//   response := { "id": <echo|null>,
//                 "ok": true,
//                 "graph_version": int,      // current snapshot version at
//                                            // response time
//                 "stale"?: true,            // served from cache because a
//                                            // fresh run would bust the
//                                            // deadline
//                 "computed_at_version"?: int, // stale only: the (older)
//                                            // snapshot the cached result
//                                            // was actually computed
//                                            // against
//                 "cached"?: true,           // served from cache (fresh)
//                 "result": object }
//             | { "id": <echo|null>,
//                 "ok": false,
//                 "error": { "code": string,           // StatusCodeName
//                            "message": string,
//                            "retry_after_ms"?: int } }  // load shed hint
//
// Error taxonomy: the "code" field is the StatusCodeName of the failing
// Status — "ParseError" (malformed JSON / missing fields), "InvalidArgument"
// (bad params, VLxxx preflight rejection), "NotFound" (unknown node),
// "ResourceExhausted" (admission queue full — retry_after_ms is set),
// "DeadlineExceeded" (deadline passed and no cached fallback existed),
// "Unsupported" (unknown op), "Cancelled" (server shutting down),
// "Internal"/"IoError" (contained request-level faults).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/json.h"
#include "common/status.h"

namespace vadalink::serve {

/// A parsed request line.
struct Request {
  /// Echoed back in the response; null when the line was malformed.
  Json id;
  std::string op;
  Json params;  // object (empty object when absent)
  /// Per-request deadline override; the server clamps it to its
  /// configured maximum. <= 0 means "expired immediately" (useful for
  /// cache-only reads); absent means the server default.
  std::optional<int64_t> deadline_ms;
};

/// Parses one protocol line. On failure the returned status message names
/// the offending field; the caller still answers the line (with a
/// ParseError response carrying a null id, or the id when one could be
/// recovered).
Result<Request> ParseRequest(std::string_view line);

/// Best-effort id extraction from a line ParseRequest rejected, so even a
/// malformed request's error response can carry the caller's id. Null
/// when the line is not an object or its id is unusable.
Json RecoverId(std::string_view line);

/// Renders a success response line (no trailing newline).
/// `computed_at_version` >= 0 adds the "computed_at_version" field — stale
/// cache hits pass the cached entry's snapshot version here so clients can
/// tell how old the answer actually is (graph_version alone names the
/// *current* snapshot, which a stale result was not computed against).
std::string RenderResult(const Json& id, uint64_t graph_version, Json result,
                         bool cached = false, bool stale = false,
                         int64_t computed_at_version = -1);

/// Renders an error response line from a Status (no trailing newline).
/// `retry_after_ms` >= 0 adds the load-shed hint.
std::string RenderError(const Json& id, const Status& status,
                        int64_t retry_after_ms = -1);

}  // namespace vadalink::serve

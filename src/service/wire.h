// JSON-lines wire codec for the compile service: request -> CompileJob and
// JobResult -> response. The request path (net::LineServer, which also
// serves recordd's stdio) and the in-process baselines that tests and
// benchmarks compare it against share this one implementation.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "service/json.h"
#include "service/service.h"

namespace record::service {

/// Decodes one request object (see the protocol comment in
/// examples/recordd.cpp) into a CompileJob. Unknown fields are ignored;
/// `default_listing` is the daemon-wide --listing default applied when the
/// request carries no "options.listing".
[[nodiscard]] CompileJob job_from_request(const Json& request,
                                          bool default_listing);

/// Encodes one JobResult as the response object: {"tag", "ok", "processor",
/// "code_size", "rts", "times", "listing"?} on success, {"tag", "ok":false,
/// "error", "deadline_exceeded"?, "retry_after_ms"?} on failure.
[[nodiscard]] Json response_from_result(const JobResult& result);

/// The rendered {"ok":false,"error":"line N: bad request: ..."} line for an
/// input line that did not parse as a JSON object.
[[nodiscard]] std::string bad_request_line(std::size_t lineno,
                                           std::string_view error);

}  // namespace record::service

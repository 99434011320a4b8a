// recordd — the compile service as a JSON-lines daemon.
//
// One request path: every request line goes through the src/net/ epoll
// event loop (net::LineServer), which answers one response line per request
// line, in request order, while later requests are still being read.
//  - stdio (default): stdin and stdout are one LineServer connection — a
//    socketpair end the server adopts, fed by two blocking byte pumps
//    (fd 0 -> socket, socket -> fd 1), so pipes, ttys and regular files all
//    work. stdin EOF answers everything pending, then exits; a failed
//    stdout write stops the daemon with exit code 1;
//  - socket (--listen / --unix): the same protocol over TCP or a Unix
//    socket — many concurrent clients, each its own connection. stdin EOF
//    stops the daemon.
//
// Request:
//   {"model": "tms320c25",             -- built-in model, or:
//    "hdl": "PROCESSOR p; ...",        -- raw HDL source
//    "source": "kernel k; ...",        -- kernel-language program (optional:
//                                         without it the job only retargets,
//                                         pre-warming the registry)
//    "tag": "r42",                     -- echoed back (optional)
//    "options": {"engine": "auto"|"tables"|"interpreter",
//                "compact": true, "spills": true,
//                "listing": false}}        -- default: the --listing flag
//
// Response:
//   {"tag": "r42", "ok": true, "processor": "tms320c25", "code_size": 12,
//    "rts": 17, "times": {"queue_ms": ..., "target_ms": ...,
//    "frontend_ms": ..., "compile_ms": ...}, "listing": [...]?}
//   {"tag": "r43", "ok": false, "error": "..."}
//
// Control-plane commands (one response object each, in request order):
//   {"cmd": "stats"}             -- full observability snapshot: service
//                                   latency percentiles, registry occupancy,
//                                   every process-wide counter/histogram
//                                   (with raw bucket distributions), and a
//                                   per-model selection-coverage section
//   {"cmd": "trace", "last": N}  -- the N most recent completed trace spans
//                                   (flight recorder; needs --trace)
//   {"cmd": "explain", "model"|"hdl": ..., "kernel": ...}
//                                -- per-statement chosen derivation: rules
//                                   with costs, rejected alternatives,
//                                   immediate-fit decisions
//   {"cmd": "shard"[, "model"|"hdl": ...]}
//                                -- consistent-hash ring shape and, for a
//                                   named target, which instance owns it
//
// Flags: --workers N (default: hardware), --queue N (default 256),
//        --registry N (LRU capacity, default 16), --cache (persistent
//        target cache on), --listing, --stats (registry/service stats to
//        stderr on exit), --trace FILE (Perfetto trace on exit; the "trace"
//        command serves the live flight recorder),
//        --listen [HOST:]PORT (TCP server; port 0 = ephemeral, printed),
//        --unix PATH (Unix-socket server),
//        --shards N --shard-index I (registry sharding across N instances),
//        --deadline MS (default per-job deadline; jobs past it return
//        ok:false with deadline_exceeded:true and a retry_after_ms hint),
//        --idle-timeout MS (close connections idle that long; default
//        300000 in socket mode, 0 = never in stdio mode),
//        --request-timeout MS (shed requests parked on a full queue longer
//        than this; 0 = never),
//        --max-parked N (server-wide cap on parked requests; past it the
//        globally oldest is shed with retry_after_ms; 0 = off).
// Numeric values are plain decimal integers within each flag's range
// (--workers and --shards at most 1024, MS values below 2^31, a port below
// 65536); anything else exits 2 with the usage line.
//
// Failpoints (util/failpoint.h) arm from RECORD_FAILPOINTS
// ("name=spec;name2=spec2") at startup, or at runtime via
// {"cmd": "failpoint", "name": ..., "spec": "once"|"every:N"|"sleep:MS"|"off"}.
//
// Try:  printf '%s\n' '{"model": "demo", "source": "kernel k;\nbind a: R0;\ncell x: mem[1];\na = a + x;"}' | ./build/example_recordd
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

#include "net/server.h"
#include "obs/coverage.h"
#include "obs/trace.h"
#include "util/failpoint.h"

using namespace record;

namespace {

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: recordd [--workers N] [--queue N] [--registry N] [--cache] "
      "[--listing] [--stats] [--trace FILE] [--listen [HOST:]PORT] "
      "[--unix PATH] [--shards N --shard-index I] [--deadline MS] "
      "[--idle-timeout MS] [--request-timeout MS] [--max-parked N]"
      "  < requests.jsonl\n");
  std::exit(2);
}

/// A flag value from the command line: a plain decimal integer in [0, max].
/// Signs, spaces, trailing junk and overflow are usage errors.
std::uint64_t parse_count(const char* flag, const std::string& text,
                          std::uint64_t max) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end || value > max) {
    std::fprintf(stderr,
                 "recordd: %s needs an integer in [0, %llu], got '%s'\n",
                 flag, static_cast<unsigned long long>(max), text.c_str());
    usage();
  }
  return value;
}

/// Copies `from` to `to` until EOF (true) or a failed write (false: the
/// reader is gone; SIGPIPE is ignored, so EPIPE lands here).
bool pump(int from, int to) {
  char buf[65536];
  for (;;) {
    ssize_t n = ::read(from, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return true;
    for (ssize_t done = 0; done < n;) {
      ssize_t w = ::write(to, buf + done, static_cast<std::size_t>(n - done));
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) return false;
      done += w;
    }
  }
}

/// Serves stdin/stdout as one connection of `server`: the server adopts one
/// end of a socketpair, and two blocking pumps copy bytes between the other
/// end and fds 0/1. Returns the exit code: 1 when a stdout write failed or
/// the server stopped reading before stdin ended.
int serve_stdio(net::LineServer& server) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    std::fprintf(stderr, "recordd: socketpair: %s\n", std::strerror(errno));
    return 1;
  }
  std::string error;
  if (!server.adopt(sv[0], &error)) {
    std::fprintf(stderr, "recordd: %s\n", error.c_str());
    ::close(sv[1]);
    return 1;
  }
  const int peer = sv[1];
  // socket -> stdout until the server closes the connection. When the
  // consumer is gone, shutting the socket both ways makes the server drop
  // the connection and the input pump's next write fail.
  bool output_ok = true;
  std::thread output([&] {
    output_ok = pump(peer, STDOUT_FILENO);
    if (!output_ok) ::shutdown(peer, SHUT_RDWR);
  });
  // stdin -> socket. The half-close at EOF tells the server to answer
  // everything pending, then close.
  const bool input_ok = pump(STDIN_FILENO, peer);
  ::shutdown(peer, SHUT_WR);
  output.join();
  ::close(peer);
  return input_ok && output_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr std::uint64_t kMaxPool = 1024;  // --workers, --shards
  constexpr std::uint64_t kMaxMs = 0x7fffffff;
  constexpr std::uint64_t kMaxSize = SIZE_MAX;
  service::CompileService::Options opts;
  opts.registry.capacity = 16;
  net::LineServer::Options sopts;
  bool want_stats = false;
  bool listen = false;
  std::string trace_path;
  std::optional<std::uint64_t> idle_timeout_ms;
  for (int i = 1; i < argc; ++i) {
    auto text = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "recordd: %s needs a value\n", flag);
        usage();
      }
      return argv[++i];
    };
    auto value = [&](const char* flag, std::uint64_t max) {
      return parse_count(flag, text(flag), max);
    };
    if (!std::strcmp(argv[i], "--workers")) {
      opts.workers = value("--workers", kMaxPool);
    } else if (!std::strcmp(argv[i], "--queue")) {
      opts.queue_capacity = value("--queue", kMaxSize);
    } else if (!std::strcmp(argv[i], "--registry")) {
      opts.registry.capacity = value("--registry", kMaxSize);
    } else if (!std::strcmp(argv[i], "--cache")) {
      opts.registry.retarget.use_target_cache = true;
    } else if (!std::strcmp(argv[i], "--listing")) {
      sopts.default_listing = true;
    } else if (!std::strcmp(argv[i], "--stats")) {
      want_stats = true;
    } else if (!std::strcmp(argv[i], "--trace")) {
      trace_path = text("--trace");
    } else if (!std::strcmp(argv[i], "--listen")) {
      std::string spec = text("--listen");
      std::size_t colon = spec.rfind(':');
      if (colon != std::string::npos) {
        sopts.host = spec.substr(0, colon);
        spec.erase(0, colon + 1);
      }
      sopts.port =
          static_cast<std::uint16_t>(parse_count("--listen", spec, 65535));
      listen = true;
    } else if (!std::strcmp(argv[i], "--unix")) {
      sopts.unix_path = text("--unix");
      listen = true;
    } else if (!std::strcmp(argv[i], "--shards")) {
      sopts.shard.count = value("--shards", kMaxPool);
    } else if (!std::strcmp(argv[i], "--shard-index")) {
      sopts.shard.index = value("--shard-index", kMaxPool);
    } else if (!std::strcmp(argv[i], "--deadline")) {
      sopts.default_deadline_ms = value("--deadline", kMaxMs);
    } else if (!std::strcmp(argv[i], "--idle-timeout")) {
      idle_timeout_ms = value("--idle-timeout", kMaxMs);
    } else if (!std::strcmp(argv[i], "--request-timeout")) {
      sopts.request_timeout_ms = value("--request-timeout", kMaxMs);
    } else if (!std::strcmp(argv[i], "--max-parked")) {
      sopts.max_parked = value("--max-parked", kMaxSize);
    } else {
      usage();
    }
  }
  if (sopts.shard.count > 0 && sopts.shard.index >= sopts.shard.count) {
    std::fprintf(stderr, "recordd: --shard-index %zu out of range for %zu "
                         "shards\n",
                 sopts.shard.index, sopts.shard.count);
    return 2;
  }
  // Socket mode defaults to a 5-minute idle timeout; stdio never idles out.
  // --idle-timeout overrides either (0 = never).
  sopts.idle_timeout_ms = idle_timeout_ms.value_or(listen ? 300000 : 0);
  // A client (or the stdout consumer) closing mid-stream must fail the
  // write, not kill the daemon with SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  // Chaos testing: RECORD_FAILPOINTS="name=spec;..." arms injection sites
  // before the service spins up, so even startup paths can fault.
  if (int armed = util::failpoints_init_from_env())
    std::fprintf(stderr, "recordd: %d failpoint(s) armed from env\n", armed);
  if (!trace_path.empty()) obs::Tracer::instance().enable();
  // Selection-coverage maps are cheap (relaxed counters) and feed the
  // "coverage" section of the stats command, so the daemon records always.
  obs::coverage().enable();

  service::CompileService svc(opts);
  net::LineServer server(svc, sopts);

  int exit_code = 0;
  if (listen) {
    std::string error;
    if (!server.start(&error)) {
      std::fprintf(stderr, "recordd: %s\n", error.c_str());
      return 1;
    }
    if (!sopts.unix_path.empty())
      std::fprintf(stderr, "recordd: listening on %s\n",
                   sopts.unix_path.c_str());
    else
      std::fprintf(stderr, "recordd: listening on %s:%u\n",
                   sopts.host.c_str(), unsigned(server.port()));
    // Serve until stdin closes — the conventional daemon lifetime under a
    // supervisor, and what lets tests drive a clean shutdown.
    std::string line;
    while (std::getline(std::cin, line)) {
    }
  } else {
    exit_code = serve_stdio(server);
  }
  server.stop();

  if (!trace_path.empty() &&
      !obs::Tracer::instance().write_chrome_trace(trace_path))
    std::fprintf(stderr, "recordd: cannot write trace to %s\n",
                 trace_path.c_str());

  if (want_stats) {
    service::RegistryStats r = svc.registry().stats();
    service::ServiceStats s = svc.stats();
    std::fprintf(stderr,
                 "recordd: %zu jobs (%zu failed), peak queue %zu | registry: "
                 "%zu hits, %zu coalesced, %zu misses (%zu from disk), "
                 "%zu evictions, %zu resident\n",
                 s.completed, s.failed, s.peak_queue, r.hits, r.coalesced,
                 r.misses, r.disk_hits, r.evictions, r.entries);
  }
  return exit_code;
}

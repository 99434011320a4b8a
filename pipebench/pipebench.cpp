// pipebench — closed-loop benchmark of the whole compile pipeline.
//
// Kernel IR (or kernel-language source) goes in, encoded instruction words
// come out, and every output is checked: against pinned word counts, against
// the RT-level simulator (sim::check_semantics) and, bit for bit, across the
// three ways this benchmark reaches the compiler (the service, one
// Compiler::compile call, and the benchmark's own direct calls into each
// layer). See README.md for the workloads, the metrics and the layer map.
//
//   pipebench --workload W --seed N --seconds S --trace 0|1
//             --pins FILE [--recordd PATH] [--out DIR]
//   pipebench --setup-only --workload W --seed N [--recordd PATH]
//                                (times one set-up; runs between slices)
//   pipebench --dump-pins        (prints the pin file for the current code)
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones
// (untraced run); with --trace 1 they are the per-layer ones, and the spans
// of the traced run are written to DIR/trace-<workload>-<seed>.json.
#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compact/compact.h"
#include "core/compiler.h"
#include "core/record.h"
#include "dspstone/kernels.h"
#include "emit/encode.h"
#include "ir/kernel_lang.h"
#include "models/workload.h"
#include "sched/spill.h"
#include "select/selector.h"
#include "service/json.h"
#include "service/service.h"
#include "service/wire.h"
#include "sim/check.h"
#include "testgen/modelgen.h"
#include "testgen/programgen.h"
#include "util/strings.h"

extern char** environ;

using namespace record;
using service::Json;

namespace {

using Clock = std::chrono::steady_clock;

// Generated multi-issue machines: the model seeds scanned, and programs per
// machine. Fixed (not drawn from --seed) so the set of distinct pairs, and
// with it code_words and sim_steps, is the same for every workload seed.
constexpr std::uint64_t kGenSeedEnd = 40;
constexpr int kProgramsPerMachine = 3;
// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 9;
// Jobs per thread whose spans go to the trace file.
constexpr std::uint64_t kTraceFileJobs = 1000;
// Replies per untraced run below which latency_p99_ms has fewer than ten
// samples beyond it; such a run is flagged on stderr.
constexpr std::size_t kMinJobs = 1000;
// error_rate never reads below this.
constexpr double kErrorRateFloor = 1e-4;
// recordd's registry must hold every target of a workload resident.
constexpr int kRegistryCapacity = 64;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Inputs

struct Target {
  std::string name;
  std::string model;  // built-in model name; empty for generated machines
  std::string hdl;    // generated machines only
};

/// `t` from the registry (hot after the set-up).
std::shared_ptr<const core::RetargetResult> resolve(
    service::TargetRegistry& reg, const Target& t,
    util::DiagnosticSink& diags) {
  return t.model.empty() ? reg.get(t.hdl, diags)
                         : reg.get_model(t.model, diags);
}

/// A cold retarget of `t`, persistent cache off.
std::optional<core::RetargetResult> retarget(const Target& t,
                                             util::DiagnosticSink& diags) {
  const core::RetargetOptions options;
  return t.model.empty() ? core::Record::retarget(t.hdl, options, diags)
                         : core::Record::retarget_model(t.model, options,
                                                        diags);
}

struct Pair {
  std::string id;  // pin key, e.g. "dsp/fir", "chain64/ref", "gen3/p1"
  std::size_t target = 0;
  std::shared_ptr<const ir::Program> program;
  std::string kernel;  // kernel-language rendering of `program`
  core::CompileOptions options;
};

struct Workload {
  std::string name;
  std::vector<Target> targets;
  std::vector<Pair> pairs;
  bool socket = false;  // recordd over TCP, kernel source on the wire
  int workers = 1;
  int clients = 1;
};

std::size_t add_builtin(Workload& w, const std::string& model) {
  for (std::size_t i = 0; i < w.targets.size(); ++i)
    if (w.targets[i].model == model) return i;
  w.targets.push_back({model, model, ""});
  return w.targets.size() - 1;
}

void add_pair(Workload& w, std::string id, std::size_t target,
              ir::Program prog, core::CompileOptions options = {}) {
  Pair p;
  p.id = std::move(id);
  p.target = target;
  p.kernel = testgen::kernel_text(prog);
  p.program = std::make_shared<const ir::Program>(std::move(prog));
  p.options = options;
  w.pairs.push_back(std::move(p));
}

void add_chains(Workload& w, int k) {
  for (const models::ChainShape& s : models::kChainShapes)
    add_pair(w, "chain" + std::to_string(k) + "/" + s.model,
             add_builtin(w, s.model), models::chain_program(s, k));
}

/// The request line a socket client sends for `p`.
std::string request_line(const Workload& w, const Pair& p, bool listing) {
  const Target& t = w.targets[p.target];
  Json req = Json::object();
  req.set("tag", Json(p.id));
  if (!t.model.empty()) req.set("model", Json(t.model));
  else req.set("hdl", Json(t.hdl));
  req.set("source", Json(p.kernel));
  if (listing) {
    Json opts = Json::object();
    opts.set("listing", Json(true));
    req.set("options", std::move(opts));
  }
  return req.dump() + "\n";
}

std::optional<Workload> make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "chains-1w") {
    add_chains(w, 64);
    add_chains(w, 128);
    return w;
  }
  if (name != "kernels-1w" && name != "socket-4w") return std::nullopt;
  const std::size_t c25 = add_builtin(w, "tms320c25");
  for (const std::string& k : dspstone::kernel_names())
    add_pair(w, "dsp/" + k, c25, dspstone::kernel(k));
  add_chains(w, 8);
  for (std::uint64_t seed = 0; seed < kGenSeedEnd; ++seed) {
    testgen::GeneratedModel m = testgen::generate_model(seed);
    if (m.issue_slots < 2) continue;
    w.targets.push_back({m.name, "", m.hdl});
    core::CompileOptions options;
    if (m.spill_slots > 0) {
      options.spill.scratch_base = m.spill_base;
      options.spill.scratch_slots = m.spill_slots;
    }
    for (int p = 0; p < kProgramsPerMachine; ++p)
      add_pair(w, m.name + "/p" + std::to_string(p), w.targets.size() - 1,
               testgen::generate_program(m, static_cast<std::uint64_t>(p))
                   .program,
               options);
  }
  if (name == "socket-4w") {
    // The wire carries no spill options: what recordd compiles is what
    // job_from_request decodes from the request line.
    w.socket = true;
    w.workers = 4;
    w.clients = 4;
    for (Pair& p : w.pairs) {
      std::optional<Json> req = Json::parse(request_line(w, p, false));
      p.options = service::job_from_request(*req, false).options;
    }
  }
  return w;
}

// ---------------------------------------------------------------------------
// Pins: the expected outcome of every distinct pair, per option set
// ("inproc" = the pair's own options, "wire" = what a request line decodes
// to). A pinned refusal is the compiler declining to emit code it cannot
// make correct; it is an expected outcome, counted in error_rate.

struct Pin {
  bool ok = false;
  std::size_t words = 0;
  std::string error;
};
using PinMap = std::map<std::string, Pin>;

std::optional<PinMap> load_pins(const std::string& path, bool wire) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream ss;
  ss << in.rdbuf();
  std::optional<Json> doc = Json::parse(ss.str());
  if (!doc) return std::nullopt;
  const Json& section = (*doc)[wire ? "wire" : "inproc"];
  const Json& ids = (*doc)["order"][wire ? "wire" : "inproc"];
  PinMap pins;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::string& id = ids.at(i).as_string();
    const Json& v = section[id];
    Pin pin;
    if (v.is_string()) {
      pin.error = v.as_string();
    } else {
      pin.ok = true;
      pin.words = static_cast<std::size_t>(v.as_int(-1));
    }
    pins[id] = pin;
  }
  return pins;
}

bool matches(const Pin& pin, bool ok, std::size_t words,
             const std::string& error) {
  return ok == pin.ok && (ok ? words == pin.words : error == pin.error);
}

std::string describe(bool ok, std::size_t words, const std::string& error) {
  return ok ? std::to_string(words) + " words" : "refused (" + error + ")";
}

// ---------------------------------------------------------------------------
// Spans, recorded from this file around the calls into each layer.

struct SpanRec {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index in the same log; -1 = root
  std::uint64_t job = 0;
  int thread = 0;
};

class SpanLog {
 public:
  SpanLog(Clock::time_point epoch, int thread)
      : epoch_(epoch), thread_(thread) {}

  int open(const char* name, int parent, std::uint64_t job) {
    spans_.push_back({name, now(), 0, parent, job, thread_});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end_ns = now(); }
  /// A span whose interval the program reported (phase and job times).
  int add(const char* name, int parent, std::uint64_t job,
          std::int64_t start_ns, std::int64_t end_ns) {
    spans_.push_back({name, start_ns, end_ns, parent, job, thread_});
    return static_cast<int>(spans_.size()) - 1;
  }
  [[nodiscard]] std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }
  [[nodiscard]] const std::vector<SpanRec>& spans() const { return spans_; }
  [[nodiscard]] const SpanRec& at(int id) const {
    return spans_[static_cast<std::size_t>(id)];
  }

 private:
  Clock::time_point epoch_;
  int thread_;
  std::vector<SpanRec> spans_;
};

/// Opens a span on construction and closes it on destruction; inert when the
/// log is null (the untraced checking passes).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int parent, std::uint64_t job)
      : log_(log), id_(log ? log->open(name, parent, job) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// ---------------------------------------------------------------------------
// Outcomes and the direct layer sequence

struct Outcome {
  bool ok = false;
  std::string error;
  std::vector<std::string> words;  // hex, one per encoded word
};

std::vector<std::string> hex_words(const emit::Assembly& a) {
  std::vector<std::string> out;
  out.reserve(a.words.size());
  for (const emit::EncodedWord& w : a.words) out.push_back(w.hex());
  return out;
}

Outcome outcome_of(const std::optional<core::CompileResult>& r,
                   const util::DiagnosticSink& diags) {
  Outcome o;
  o.ok = r.has_value();
  if (r) o.words = hex_words(r->encoded.assembly);
  else o.error = diags.first_error();
  return o;
}

struct LayerRun {
  Outcome out;           // words only when untraced
  std::size_t words = 0;
  std::size_t nodes = 0;
  sched::SpillStats spill;
  compact::CompactStats compact;
};

/// Compiles `p` by calling each layer's public function in the order
/// Compiler::compile uses: frontend (kernel text, when `parse`), selection,
/// spill repair, compaction, encoding. Spans go to `log` when non-null; the
/// encoded words are kept only without one. `compile_parsed` compiles the
/// parsed program instead of the pair's IR.
LayerRun run_layers(const core::RetargetResult& t, const Pair& p, bool parse,
                    bool compile_parsed, select::SelectScratch* scratch,
                    SpanLog* log, std::uint64_t job) {
  LayerRun run;
  util::DiagnosticSink diags;
  ScopedSpan root(log, "job", -1, job);
  auto refuse = [&] {
    run.out.ok = false;
    run.out.error = diags.first_error();
    return run;
  };
  const ir::Program* prog = p.program.get();
  std::optional<ir::Program> parsed;
  if (parse) {
    ScopedSpan s(log, "ir.parse", root.id(), job);
    parsed = ir::parse_kernel(p.kernel, diags);
    if (!parsed) return refuse();
    if (compile_parsed) prog = &*parsed;
  }
  const burstab::TargetTables* tables =
      p.options.engine == select::Engine::kInterpreter ? nullptr
                                                       : t.tables.get();
  std::optional<select::SelectionResult> sel;
  {
    ScopedSpan s(log, "select", root.id(), job);
    select::CodeSelector selector(*t.base, t.tree_grammar, diags, tables,
                                  scratch);
    sel = selector.select(*prog);
    run.nodes = selector.stats().nodes_labelled;
  }
  if (!sel) return refuse();
  if (p.options.insert_spills) {
    ScopedSpan s(log, "sched.spill", root.id(), job);
    run.spill = sched::insert_spills(*sel, *prog, *t.base, t.tree_grammar,
                                     p.options.spill, diags);
  }
  if (run.spill.unresolved > 0) return refuse();
  compact::CompactResult compacted;
  {
    ScopedSpan s(log, "compact", root.id(), job);
    compacted = compact::compact(*sel, *t.base, p.options.compact, diags);
  }
  run.compact = compacted.stats;
  emit::EncodeResult encoded;
  {
    ScopedSpan s(log, "emit.encode", root.id(), job);
    encoded = emit::encode(compacted.program, *t.base, diags);
  }
  if (!diags.ok()) return refuse();
  run.out.ok = true;
  run.words = encoded.assembly.size();
  if (!log) run.out.words = hex_words(encoded.assembly);
  return run;
}

// ---------------------------------------------------------------------------
// Clients: one closed-loop caller each, in process or over a socket.

struct Reply {
  bool ok = false;
  std::string error;
  std::size_t code_size = 0;
  std::vector<std::string> listing;  // lines, when requested
  std::vector<std::string> words;    // in-process, when requested
  service::JobTimes times;
};

class Client {
 public:
  virtual ~Client() = default;
  Client() = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&&) = delete;
  Client& operator=(Client&&) = delete;
  /// One request, one reply. `detail` asks for the listing (and, in
  /// process, the encoded words) — the first pass of each pair.
  virtual std::optional<Reply> call(const Pair& p, bool detail) = 0;
};

class InProcClient final : public Client {
 public:
  InProcClient(service::CompileService& svc, const Workload& w)
      : svc_(svc), w_(w) {}

  std::optional<Reply> call(const Pair& p, bool detail) override {
    const Target& t = w_.targets[p.target];
    service::CompileJob job;
    job.tag = p.id;
    job.model = t.model;
    if (t.model.empty()) job.hdl = t.hdl;
    job.program = p.program;
    job.options = p.options;
    job.want_listing = detail;
    service::JobResult r = svc_.submit(std::move(job)).get();
    Reply out;
    out.ok = r.ok;
    out.error = r.error;
    out.code_size = r.code_size;
    out.times = r.times;
    if (detail) {
      for (const std::string& line : util::split(r.listing, '\n'))
        if (!line.empty()) out.listing.push_back(line);
      if (r.compiled) out.words = hex_words(r.compiled->encoded.assembly);
    }
    return out;
  }

 private:
  service::CompileService& svc_;
  const Workload& w_;
};

class SocketClient final : public Client {
 public:
  SocketClient(const Workload& w, std::uint16_t port) : w_(w) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    for (const Pair& p : w.pairs) {
      lines_.push_back(request_line(w, p, false));
      detail_lines_.push_back(request_line(w, p, true));
    }
  }
  ~SocketClient() override {
    if (fd_ >= 0) ::close(fd_);
  }
  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  std::optional<Reply> call(const Pair& p, bool detail) override {
    const std::size_t i = static_cast<std::size_t>(&p - w_.pairs.data());
    std::optional<Json> resp =
        roundtrip(detail ? detail_lines_[i] : lines_[i]);
    if (!resp) return std::nullopt;
    Reply out;
    out.ok = (*resp)["ok"].as_bool();
    out.error = (*resp)["error"].as_string();
    out.code_size = static_cast<std::size_t>((*resp)["code_size"].as_int());
    const Json& t = (*resp)["times"];
    out.times.queue_ms = t["queue_ms"].as_number();
    out.times.target_ms = t["target_ms"].as_number();
    out.times.frontend_ms = t["frontend_ms"].as_number();
    out.times.compile_ms = t["compile_ms"].as_number();
    const Json& listing = (*resp)["listing"];
    for (std::size_t k = 0; k < listing.size(); ++k)
      out.listing.push_back(listing.at(k).as_string());
    return out;
  }

  /// Sends one request line, reads one response line.
  std::optional<Json> roundtrip(const std::string& line) {
    std::size_t sent = 0;
    while (sent < line.size()) {
      ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) return std::nullopt;
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      std::size_t nl = buf_.find('\n', scanned_);
      if (nl != std::string::npos) {
        std::optional<Json> doc =
            Json::parse(std::string_view(buf_).substr(0, nl));
        buf_.erase(0, nl + 1);
        scanned_ = 0;
        return doc;
      }
      scanned_ = buf_.size();
      char chunk[65536];
      ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return std::nullopt;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  const Workload& w_;
  int fd_ = -1;
  std::string buf_;
  std::size_t scanned_ = 0;
  std::vector<std::string> lines_;
  std::vector<std::string> detail_lines_;
};

/// A recordd process serving on an ephemeral TCP port. Its lifetime is its
/// stdin: closing the pipe stops the server, which then exits.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { stop(); }

  bool start(const std::string& path, int workers, std::string* error) {
    int in[2], err[2];
    if (::pipe2(in, O_CLOEXEC) != 0) return fail(error, "pipe");
    if (::pipe2(err, O_CLOEXEC) != 0) {
      ::close(in[0]);
      ::close(in[1]);
      return fail(error, "pipe");
    }
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, in[0], 0);
    posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_adddup2(&fa, err[1], 2);
    const std::string w = std::to_string(workers);
    const std::string reg = std::to_string(kRegistryCapacity);
    std::vector<const char*> argv = {path.c_str(), "--workers", w.c_str(),
                                     "--registry", reg.c_str(),
                                     "--idle-timeout", "0",
                                     "--listen", "127.0.0.1:0", nullptr};
    const int rc =
        ::posix_spawn(&pid_, path.c_str(), &fa, nullptr,
                      const_cast<char* const*>(argv.data()), environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(in[0]);
    ::close(err[1]);
    stdin_fd_ = in[1];
    if (rc != 0) {
      pid_ = -1;
      ::close(err[0]);
      return fail(error, "cannot spawn " + path);
    }
    // "recordd: listening on 127.0.0.1:PORT" on stderr.
    std::string text;
    auto listening = [&text] {
      const std::size_t at = text.find("listening on ");
      return at != std::string::npos &&
             text.find('\n', at) != std::string::npos;
    };
    const Clock::time_point until = Clock::now() + std::chrono::seconds(30);
    while (!listening() && Clock::now() < until) {
      pollfd pfd{err[0], POLLIN, 0};
      if (::poll(&pfd, 1, 1000) <= 0) continue;
      char chunk[512];
      ssize_t n = ::read(err[0], chunk, sizeof chunk);
      if (n <= 0) break;
      text.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(err[0]);  // recordd ignores SIGPIPE; later stderr is dropped
    if (!listening()) return fail(error, "recordd did not start: " + text);
    const std::size_t at = text.find("listening on ");
    const std::size_t colon = text.rfind(':', text.find('\n', at));
    port_ = static_cast<std::uint16_t>(std::atoi(text.c_str() + colon + 1));
    return port_ != 0 || fail(error, "recordd reported no port");
  }

  /// Peak resident set of the daemon (VmHWM), in MiB.
  [[nodiscard]] double peak_rss_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line))
      if (line.rfind("VmHWM:", 0) == 0)
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
  }

  void stop() {
    if (stdin_fd_ >= 0) ::close(stdin_fd_);
    stdin_fd_ = -1;
    if (pid_ > 0) {
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  bool fail(std::string* error, const std::string& what) {
    if (error) *error = what;
    if (pid_ > 0) ::kill(pid_, SIGKILL);
    stop();
    return false;
  }

  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  std::uint16_t port_ = 0;
};

// ---------------------------------------------------------------------------
// Statistics

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank.
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * double(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// ---------------------------------------------------------------------------
// Host speed
//
// The benchmark runs in a virtual machine whose host it shares with other
// tenants. Their load moves this program's speed by up to 2x for minutes:
// more than any bound a change could be held to. Two things the program's
// code cannot move measure how slow the host was during the timed slices,
// and the end-to-end timings are reported as on the reference host at its
// typical speed: each divided by the product of the two slowdowns.
//
// - Cache misses. A probe, timed once per pass of the first client, chases
//   a random cycle through half a core's L2 (2 MiB on the reference Xeon).
//   Whatever of it stays in L2 through a pass is a fast hit; what the other
//   tenants sharing the core and the last-level cache push out is a slow
//   miss, the same misses that slow the program when they are busy. Its
//   slowdown is its median reading over kProbeNominalNs.
// - Preemption. When the hypervisor runs another tenant on a CPU this
//   machine wanted to run, the kernel counts the time as stolen
//   (/proc/stat). With a share s of the CPU time the slices wanted stolen,
//   the machine got 1 - s of what it asked for: the slowdown is 1 / (1 - s).

constexpr std::size_t kProbeBytes = 1u << 20;
constexpr int kProbeSteps = 20000;
// A typical reading of the probe, in ns per step, on the reference host (a
// 4-core KVM guest on a Xeon with 2 MiB L2 per core).
constexpr double kProbeNominalNs = 90.0;

/// Clock ticks of all CPUs from /proc/stat: the ticks they wanted to run
/// (busy, stolen ones included) and the ticks stolen from them.
struct CpuTicks {
  long long busy = 0;
  long long steal = 0;
};

/// Zero ticks when /proc/stat cannot be read (no preemption correction).
CpuTicks read_cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  // user nice system idle iowait irq softirq steal
  long long v[8] = {};
  if (!(f >> cpu) || cpu != "cpu") return {};
  for (long long& x : v)
    if (!(f >> x)) return {};
  return {v[0] + v[1] + v[2] + v[5] + v[6] + v[7], v[7]};
}

class HostSpeed {
 public:
  HostSpeed() : next_(kProbeBytes / sizeof(std::uint32_t)) {
    // Sattolo's shuffle: one cycle through every slot.
    for (std::size_t i = 0; i < next_.size(); ++i)
      next_[i] = static_cast<std::uint32_t>(i);
    testgen::Rng rng(0x9b05688c2b3e6c1full);
    for (std::size_t i = next_.size() - 1; i > 0; --i)
      std::swap(next_[i], next_[rng.below(i)]);
  }

  /// Times one probe chase.
  void sample() {
    const Clock::time_point t0 = Clock::now();
    std::uint32_t at = at_;
    for (int i = 0; i < kProbeSteps; ++i) at = next_[at];
    at_ = at;
    ns_.push_back(ms_between(t0, Clock::now()) * 1e6 / kProbeSteps);
  }

  /// Brackets a timed slice, to count the CPU time stolen during it.
  void slice_begin() { begin_ = read_cpu_ticks(); }
  void slice_end() {
    const CpuTicks end = read_cpu_ticks();
    busy_ += end.busy - begin_.busy;
    steal_ += end.steal - begin_.steal;
  }

  /// Median ns per probe step over every chase.
  [[nodiscard]] double ns_per_step() const { return quantile(ns_, 0.50); }

  /// Share of the CPU time the slices wanted that was stolen.
  [[nodiscard]] double steal_share() const {
    return busy_ > 0 ? double(steal_) / double(busy_) : 0.0;
  }

  /// How much slower than the reference host this run's host was.
  [[nodiscard]] double slowdown() const {
    return ns_per_step() / kProbeNominalNs / (1.0 - steal_share());
  }

 private:
  std::vector<std::uint32_t> next_;
  volatile std::uint32_t at_ = 0;
  std::vector<double> ns_;
  CpuTicks begin_;
  long long busy_ = 0;
  long long steal_ = 0;
};

/// Moves every thread of this process to one CPU after another. The host's
/// other tenants slow each CPU by up to 2x for seconds at a time, each CPU
/// at its own moments; a single-client closed loop left on one CPU takes
/// that CPU's luck for the whole stretch, whereas one that visits every CPU
/// in turn, a pass on each, takes their average.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (::sched_getaffinity(0, sizeof all_, &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
  }
  ~CpuRotation() { release(); }

  /// Moves every thread to the next CPU.
  void next() {
    if (cpus_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[next_++ % cpus_.size()], &set);
    pin(set);
  }

  /// Lets every thread run on any CPU again (and the children it spawns).
  void release() {
    if (!cpus_.empty()) pin(all_);
  }

 private:
  static void pin(const cpu_set_t& set) {
    DIR* dir = ::opendir("/proc/self/task");
    if (!dir) return;
    while (const dirent* e = ::readdir(dir)) {
      const int tid = std::atoi(e->d_name);
      if (tid > 0) ::sched_setaffinity(tid, sizeof set, &set);
    }
    ::closedir(dir);
  }

  cpu_set_t all_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Metrics {
 public:
  void add(std::string name, double value, std::string unit) {
    list_.push_back({std::move(name), value, std::move(unit)});
  }
  void add_pct(const std::string& name, const std::vector<double>& v,
               const std::string& unit) {
    add(name + ".p50", quantile(v, 0.50), unit);
    add(name + ".p99", quantile(v, 0.99), unit);
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < list_.size(); ++i) {
      char num[64];
      std::snprintf(num, sizeof num, "%.17g", list_[i].value);
      out += (i ? ", " : "") + Json::quote(list_[i].name) +
             ": {\"value\": " + num + ", \"unit\": " +
             Json::quote(list_[i].unit) + "}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> list_;
};

// ---------------------------------------------------------------------------
// The closed loop

/// Job order: each client walks the distinct pairs in passes, each pass a
/// fresh seeded shuffle.
class JobOrder {
 public:
  JobOrder(std::size_t n, std::uint64_t seed) : rng_(seed), idx_(n) {
    for (std::size_t i = 0; i < n; ++i) idx_[i] = i;
    pos_ = n;
  }
  std::size_t next() {
    if (pos_ == idx_.size()) {
      for (std::size_t i = idx_.size(); i > 1; --i)
        std::swap(idx_[i - 1], idx_[rng_.below(i)]);
      pos_ = 0;
    }
    return idx_[pos_++];
  }

 private:
  testgen::Rng rng_;
  std::vector<std::size_t> idx_;
  std::size_t pos_ = 0;
};

std::uint64_t client_seed(std::uint64_t seed, int client) {
  return seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(client) + 1;
}

struct TimedReply {
  service::JobTimes times;  // as the service reported them
  double latency_ms = 0;    // as the client saw it
};

/// One closed loop's tallies. The service loop fills every field; the
/// traced loop only the attempted, mismatched and per-pair time tallies.
struct LoopStats {
  explicit LoopStats(std::size_t pairs = 0)
      : pair_ms(pairs), pair_n(pairs), pair_jobs(pairs), pair_errors(pairs) {}
  std::vector<double> latency_ms;
  std::vector<TimedReply> times;  // compiled jobs only
  std::size_t attempted = 0;
  std::size_t errors = 0;      // !ok, or words differ from the pin
  std::size_t mismatched = 0;  // outcome differs from the pin, or no reply
  std::vector<double> pair_ms;  // per pair: compiled job time, summed (ms)
  std::vector<std::size_t> pair_n;       // ... over this many compiled jobs
  std::vector<std::size_t> pair_jobs;    // per pair: jobs
  std::vector<std::size_t> pair_errors;  // ... that counted as errors

  /// Share of jobs that failed, each distinct pair weighted equally (the
  /// mix's weights): with deterministic outcomes it does not depend on
  /// where the run stopped, so it repeats exactly.
  [[nodiscard]] double error_share() const {
    double share = 0;
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < pair_jobs.size(); ++i) {
      if (pair_jobs[i] == 0) continue;
      share += double(pair_errors[i]) / double(pair_jobs[i]);
      ++pairs;
    }
    return pairs ? share / double(pairs) : 0.0;
  }

  void merge(const LoopStats& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    times.insert(times.end(), o.times.begin(), o.times.end());
    attempted += o.attempted;
    errors += o.errors;
    mismatched += o.mismatched;
    pair_ms.resize(std::max(pair_ms.size(), o.pair_ms.size()));
    pair_n.resize(std::max(pair_n.size(), o.pair_n.size()));
    pair_jobs.resize(std::max(pair_jobs.size(), o.pair_jobs.size()));
    pair_errors.resize(std::max(pair_errors.size(), o.pair_errors.size()));
    for (std::size_t i = 0; i < o.pair_ms.size(); ++i) {
      pair_ms[i] += o.pair_ms[i];
      pair_n[i] += o.pair_n[i];
      pair_jobs[i] += o.pair_jobs[i];
      pair_errors[i] += o.pair_errors[i];
    }
  }
};

/// One closed-loop caller's position and tallies; kept across the slices of
/// a run.
struct ClientState {
  ClientState(std::size_t pairs, std::uint64_t seed)
      : order(pairs, seed), st(pairs) {}
  JobOrder order;
  LoopStats st;
  std::uint64_t job = 0;
  // Before each pass: the CPU rotation moves on, then the cache probe is
  // sampled.
  CpuRotation* rotation = nullptr;
  HostSpeed* host = nullptr;
};

void client_loop(Client& c, const Workload& w, const PinMap& pins,
                 Clock::time_point deadline, ClientState& cs, SpanLog* log) {
  LoopStats& st = cs.st;
  while (Clock::now() < deadline) {
    if (cs.job % w.pairs.size() == 0) {
      if (cs.rotation) cs.rotation->next();
      if (cs.host) cs.host->sample();
    }
    const std::size_t i = cs.order.next();
    const Pair& p = w.pairs[i];
    const std::uint64_t job = cs.job++;
    const std::int64_t s0 = log ? log->now() : 0;
    const Clock::time_point t0 = Clock::now();
    std::optional<Reply> r = c.call(p, false);
    const double lat = ms_between(t0, Clock::now());
    ++st.attempted;
    ++st.pair_jobs[i];
    if (!r) {
      ++st.errors;
      ++st.pair_errors[i];
      ++st.mismatched;
      continue;
    }
    st.latency_ms.push_back(lat);
    const Pin& pin = pins.at(p.id);
    // Only compiled jobs report their phase times over the wire; keep both
    // transports to the same population.
    if (r->ok) {
      st.times.push_back({r->times, lat});
      st.pair_ms[i] += r->times.frontend_ms + r->times.compile_ms;
      ++st.pair_n[i];
    }
    if (!r->ok || (pin.ok && r->code_size != pin.words)) {
      ++st.errors;
      ++st.pair_errors[i];
    }
    if (!matches(pin, r->ok, r->code_size, r->error)) ++st.mismatched;
    if (log && r->ok) {
      // Client round trip, with the service-reported phases as children
      // laid end to end from the send (the wire and hand-off time is what
      // the children leave uncovered).
      const std::int64_t s1 = log->now();
      const int root = log->add(w.socket ? "net.request" : "service.job", -1,
                                job, s0, s1);
      std::int64_t at = s0;
      const std::pair<const char*, double> phases[] = {
          {"service.queue", r->times.queue_ms},
          {"service.target", r->times.target_ms},
          {"service.frontend", r->times.frontend_ms},
          {"service.compile", r->times.compile_ms}};
      for (const auto& [name, ms] : phases) {
        const std::int64_t d = static_cast<std::int64_t>(ms * 1e6);
        log->add(name, root, job, at, at + d);
        at += d;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// One benchmark run

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string pins;
  std::string recordd;
  std::string out = ".";
  bool dump_pins = false;
  bool setup_only = false;
  std::string self;  // this program, for --setup-only children
};

/// Everything a set-up leaves behind for the timed run.
struct Server {
  std::unique_ptr<service::CompileService> svc;  // in process
  std::unique_ptr<Daemon> daemon;                // socket
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<Reply> first;  // warm-up reply per pair (with listing)
};

/// Set-up: a fresh service (or recordd), every target retargeted cold with
/// the persistent cache off, then one warm-up pass over every pair.
std::optional<Server> set_up(const Workload& w, const Args& args,
                             std::uint64_t seed, std::string* error) {
  Server s;
  if (w.socket) {
    s.daemon = std::make_unique<Daemon>();
    if (!s.daemon->start(args.recordd, w.workers, error)) return std::nullopt;
    for (int c = 0; c < w.clients; ++c) {
      auto client = std::make_unique<SocketClient>(w, s.daemon->port());
      if (!client->connected()) {
        *error = "cannot connect to recordd";
        return std::nullopt;
      }
      s.clients.push_back(std::move(client));
    }
    auto* c0 = static_cast<SocketClient*>(s.clients[0].get());
    for (const Target& t : w.targets) {
      Json req = Json::object();
      if (!t.model.empty()) req.set("model", Json(t.model));
      else req.set("hdl", Json(t.hdl));
      std::optional<Json> resp = c0->roundtrip(req.dump() + "\n");
      if (!resp || !(*resp)["ok"].as_bool()) {
        *error = "recordd cannot retarget " + t.name;
        return std::nullopt;
      }
    }
  } else {
    service::CompileService::Options o;
    o.workers = static_cast<std::size_t>(w.workers);
    o.registry.capacity = kRegistryCapacity;
    s.svc = std::make_unique<service::CompileService>(o);
    for (const Target& t : w.targets) {
      util::DiagnosticSink diags;
      if (!resolve(s.svc->registry(), t, diags)) {
        *error = "cannot retarget " + t.name + ": " + diags.first_error();
        return std::nullopt;
      }
    }
    for (int c = 0; c < w.clients; ++c)
      s.clients.push_back(std::make_unique<InProcClient>(*s.svc, w));
  }
  JobOrder order(w.pairs.size(), seed);
  s.first.resize(w.pairs.size());
  for (std::size_t n = 0; n < w.pairs.size(); ++n) {
    const std::size_t i = order.next();
    std::optional<Reply> r = s.clients[0]->call(w.pairs[i], true);
    if (!r) {
      *error = "no reply to warm-up job " + w.pairs[i].id;
      return std::nullopt;
    }
    s.first[i] = std::move(*r);
  }
  return s;
}

struct Check {
  std::size_t failed_pairs = 0;
  std::size_t code_words = 0;
  std::size_t sim_steps = 0;
  std::size_t checked = 0;
  std::size_t refused = 0;
  std::vector<std::string> skipped;  // "id: reason"
};

void report_failure(const std::string& what) {
  std::fprintf(stderr, "pipebench: CHECK FAILED %s\n", what.c_str());
}

/// Untimed correctness reference over every distinct pair: the service's
/// first reply, Compiler::compile and the direct layer sequence must agree
/// bit for bit (or all refuse); the outcome must match its pin; and the
/// emitted code must agree with the IR under the RT-level simulator.
Check check_pairs(const Workload& w, const PinMap& pins, const Server& s) {
  Check ck;
  // recordd's targets live in another process: the socket workload checks
  // against an in-process reference that runs the daemon's own job path
  // (job_from_request + run_job) on the same request line.
  service::TargetRegistry::Options ro;
  ro.capacity = kRegistryCapacity;
  std::optional<service::TargetRegistry> local;
  if (w.socket) local.emplace(ro);
  service::TargetRegistry& reg = w.socket ? *local : s.svc->registry();
  select::SelectScratch scratch;
  for (std::size_t i = 0; i < w.pairs.size(); ++i) {
    const Pair& p = w.pairs[i];
    util::DiagnosticSink target_diags;
    std::shared_ptr<const core::RetargetResult> target =
        resolve(reg, w.targets[p.target], target_diags);
    if (!target) {
      report_failure(p.id + ": target did not retarget: " +
                     target_diags.first_error());
      ++ck.failed_pairs;
      continue;
    }
    bool pair_ok = true;
    auto fail = [&](const std::string& what) {
      report_failure(p.id + ": " + what);
      pair_ok = false;
    };
    util::DiagnosticSink diags;
    std::optional<core::CompileResult> compiled =
        core::Compiler(target).compile(*p.program, p.options, diags);
    const Outcome via_compiler = outcome_of(compiled, diags);
    const LayerRun direct =
        run_layers(*target, p, w.socket, w.socket, &scratch, nullptr, 0);

    Outcome via_service;
    const Reply& first = s.first[i];
    if (w.socket) {
      std::optional<Json> req = Json::parse(request_line(w, p, true));
      service::JobResult ref = service::CompileService::run_job(
          service::job_from_request(*req, false), reg);
      via_service.ok = ref.ok;
      via_service.error = ref.error;
      if (ref.compiled)
        via_service.words = hex_words(ref.compiled->encoded.assembly);
      std::vector<std::string> ref_lines;
      for (const std::string& line : util::split(ref.listing, '\n'))
        if (!line.empty()) ref_lines.push_back(line);
      if (first.ok != ref.ok || first.error != ref.error ||
          first.code_size != ref.code_size || first.listing != ref_lines)
        fail("recordd reply differs from the in-process job path");
    } else {
      via_service.ok = first.ok;
      via_service.error = first.error;
      via_service.words = first.words;
    }
    if (via_compiler.ok != direct.out.ok ||
        via_compiler.words != direct.out.words)
      fail("direct layer calls differ from Compiler::compile");
    if (via_compiler.ok != via_service.ok ||
        via_compiler.words != via_service.words ||
        via_compiler.error != via_service.error)
      fail("service differs from Compiler::compile");

    const Pin& pin = pins.at(p.id);
    if (!matches(pin, via_compiler.ok, via_compiler.words.size(),
                 via_compiler.error))
      fail(describe(via_compiler.ok, via_compiler.words.size(),
                    via_compiler.error) +
           ", pinned " + describe(pin.ok, pin.words, pin.error));

    if (compiled) {
      ck.code_words += compiled->code_size();
      sim::CheckOptions so;
      so.scratch_memory = p.options.spill.scratch_memory;
      so.scratch_base = p.options.spill.scratch_base;
      so.scratch_slots = p.options.spill.scratch_slots;
      sim::CheckReport rep =
          sim::check_semantics(*p.program, *compiled, *target, so);
      switch (rep.status) {
        case sim::CheckStatus::kAgree:
          ++ck.checked;
          ck.sim_steps += static_cast<std::size_t>(rep.sim.steps);
          break;
        case sim::CheckStatus::kSkipped:
          ck.skipped.push_back(p.id + ": " + rep.detail);
          break;
        default:
          fail(std::string(sim::to_string(rep.status)) + ": " + rep.detail);
      }
    } else {
      ++ck.refused;
    }
    if (!pair_ok) ++ck.failed_pairs;
  }
  return ck;
}

/// Retarget phases: RetargetResult::times name, span, per-layer metric.
struct Phase {
  const char* time;    // name in RetargetResult::times
  const char* span;    // span name
  const char* metric;  // per-layer metric
};
constexpr Phase kPhases[] = {{"hdl", "hdl", "hdl.ms"},
                             {"ise", "ise", "ise.ms"},
                             {"extend", "rtl.extend", "rtl.extend_ms"},
                             {"grammar", "grammar", "grammar.ms"},
                             {"tables", "burstab.build", "burstab.build_ms"}};
constexpr std::size_t kPhaseCount = std::size(kPhases);

/// Per-layer metrics of the traced run.
struct LayerReport {
  std::vector<double> retarget_ms;  // per round, summed over the targets
  std::array<std::vector<double>, kPhaseCount> phase_ms;  // likewise
  double states = 0, transitions = 0, constrained = 0, frozen_misses = 0;
  double nodes_setup = 0, nodes_growth = 0;
  std::size_t nodes = 0, spills = 0, live_saves = 0;
  compact::CompactStats compact;
  std::vector<SpanRec> spans;  // every thread's spans, merged
  LoopStats st;                // every thread's tallies, merged
  std::size_t traced_nodes = 0, traced_words = 0;  // over the traced jobs
};

/// Appends `log`'s spans to `all`, rebasing parent indices onto `all`.
void append_spans(std::vector<SpanRec>& all, const SpanLog& log) {
  const int base = static_cast<int>(all.size());
  for (SpanRec s : log.spans()) {
    if (s.parent >= 0) s.parent += base;
    all.push_back(s);
  }
}

double bdd_nodes(
    const std::vector<std::shared_ptr<const core::RetargetResult>>& ts) {
  double n = 0;
  for (const auto& t : ts) n += static_cast<double>(t->base->mgr->node_count());
  return n;
}

/// One thread of the traced closed loop; kept across the slices of a run.
struct TracedThread {
  TracedThread(std::size_t pairs, std::uint64_t seed, Clock::time_point epoch,
               int id)
      : log(epoch, id), order(pairs, seed), st(pairs) {}
  SpanLog log;
  JobOrder order;
  select::SelectScratch scratch;
  LoopStats st;  // pair_ms: traced job time
  std::size_t nodes = 0, words = 0;
  std::uint64_t job = 0;
};

/// The traced run: cold retargets, then a closed loop of direct layer calls
/// on targets owned by the benchmark, one thread per client.
struct Traced {
  explicit Traced(Clock::time_point epoch) : setup_log(epoch, 0) {}
  std::vector<std::shared_ptr<const core::RetargetResult>> targets;
  SpanLog setup_log;
  std::vector<std::unique_ptr<TracedThread>> threads;
  LayerReport rep;
  CpuRotation* rotation = nullptr;  // moves on before each pass
};

/// Cold retarget rounds (timed), then an untraced warm-up pass that gives
/// the per-pair counts and the table and BDD sizes after set-up.
std::unique_ptr<Traced> prepare_trace(const Workload& w, std::uint64_t seed,
                                      Clock::time_point epoch,
                                      std::string* error) {
  auto tr = std::make_unique<Traced>(epoch);
  LayerReport& rep = tr->rep;
  SpanLog& setup_log = tr->setup_log;
  std::vector<std::shared_ptr<const core::RetargetResult>>& targets =
      tr->targets;
  for (int r = 0; r < kSetupReps; ++r) {
    targets.clear();
    double total = 0;
    std::array<double, kPhaseCount> phases{};
    for (const Target& t : w.targets) {
      util::DiagnosticSink diags;
      const std::int64_t s0 = setup_log.now();
      const Clock::time_point t0 = Clock::now();
      std::optional<core::RetargetResult> res = retarget(t, diags);
      total += ms_between(t0, Clock::now());
      const int root =
          setup_log.add("core.retarget", -1, targets.size(), s0,
                        setup_log.now());
      if (!res) {
        *error = "cannot retarget " + t.name;
        return nullptr;
      }
      // Phase children from RetargetResult::times, laid end to end.
      std::int64_t at = s0;
      for (std::size_t k = 0; k < kPhaseCount; ++k) {
        const double sec = res->times.get(kPhases[k].time);
        const std::int64_t d = static_cast<std::int64_t>(sec * 1e9);
        setup_log.add(kPhases[k].span, root, targets.size(), at, at + d);
        at += d;
        phases[k] += sec * 1e3;
      }
      targets.push_back(
          std::make_shared<const core::RetargetResult>(std::move(*res)));
    }
    rep.retarget_ms.push_back(total);
    for (std::size_t k = 0; k < kPhaseCount; ++k)
      rep.phase_ms[k].push_back(phases[k]);
  }

  // Warm-up pass (untraced): the counts are per distinct pair.
  {
    select::SelectScratch scratch;
    for (const Pair& p : w.pairs) {
      LayerRun run = run_layers(*targets[p.target], p, true, w.socket,
                                &scratch, nullptr, 0);
      rep.nodes += run.nodes;
      rep.spills += run.spill.spills_inserted;
      rep.live_saves += run.spill.live_saves;
      rep.compact.input_rts += run.compact.input_rts;
      rep.compact.words += run.compact.words;
      rep.compact.multi_rt_words += run.compact.multi_rt_words;
      rep.compact.pairs_rejected_encoding +=
          run.compact.pairs_rejected_encoding;
    }
  }
  for (const auto& t : targets) {
    if (!t->tables) continue;
    const burstab::TableStats ts = t->tables->stats();
    rep.states += static_cast<double>(ts.states);
    rep.transitions += static_cast<double>(ts.transitions);
    rep.constrained += static_cast<double>(ts.constrained_rules);
    rep.frozen_misses += static_cast<double>(ts.frozen_misses);
  }
  rep.nodes_setup = bdd_nodes(targets);

  for (int c = 0; c < w.clients; ++c)
    tr->threads.push_back(std::make_unique<TracedThread>(
        w.pairs.size(), client_seed(seed, c), epoch, c + 1));
  return tr;
}

/// Runs every traced thread's closed loop for `seconds`.
void traced_slice(Traced& tr, const Workload& w, const PinMap& pins,
                  double seconds) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (const std::unique_ptr<TracedThread>& th : tr.threads)
    threads.emplace_back([&, t = th.get()] {
      while (Clock::now() < deadline) {
        if (tr.rotation && t->job % w.pairs.size() == 0) tr.rotation->next();
        const std::size_t i = t->order.next();
        const Pair& p = w.pairs[i];
        const int first = static_cast<int>(t->log.spans().size());
        LayerRun run = run_layers(*tr.targets[p.target], p, true, w.socket,
                                  &t->scratch, &t->log, t->job++);
        // Time comparable with the service's frontend+compile: the whole
        // job, less the parse on in-process workloads (their service
        // receives IR).
        const SpanRec& root = t->log.at(first);
        double ns = double(root.end_ns - root.start_ns);
        if (!w.socket) {
          const SpanRec& parse = t->log.at(first + 1);
          ns -= double(parse.end_ns - parse.start_ns);
        }
        t->st.pair_ms[i] += ns / 1e6;
        ++t->st.pair_n[i];
        t->nodes += run.nodes;
        t->words += run.words;
        ++t->st.attempted;
        // Refusal messages are the compiler's; the direct sequence only has
        // to refuse where it refuses.
        const Pin& pin = pins.at(p.id);
        if (run.out.ok != pin.ok || (run.out.ok && run.words != pin.words))
          ++t->st.mismatched;
      }
    });
  for (std::thread& t : threads) t.join();
}

/// Closes the traced run: BDD growth, merged spans and per-pair totals.
const LayerReport& finish_trace(Traced& tr) {
  LayerReport& rep = tr.rep;
  rep.nodes_growth = bdd_nodes(tr.targets) - rep.nodes_setup;
  append_spans(rep.spans, tr.setup_log);
  for (const std::unique_ptr<TracedThread>& t : tr.threads) {
    append_spans(rep.spans, t->log);
    rep.st.merge(t->st);
    rep.traced_nodes += t->nodes;
    rep.traced_words += t->words;
  }
  return rep;
}

/// Span durations of one name, in microseconds.
std::vector<double> span_us(const std::vector<SpanRec>& spans,
                            std::string_view name) {
  std::vector<double> out;
  for (const SpanRec& s : spans)
    if (name == s.name) out.push_back(double(s.end_ns - s.start_ns) / 1e3);
  return out;
}

double sum(const std::vector<double>& v) {
  double t = 0;
  for (double x : v) t += x;
  return t;
}

/// Chrome trace-event JSON (loads in Perfetto): one complete event per span
/// of the first kTraceFileJobs jobs of each thread, with the job id and the
/// parent's event index as arguments. The metrics use every span.
bool write_trace(const std::string& path, const std::vector<SpanRec>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fputs("{\"traceEvents\": [\n", f);
  std::vector<int> written(spans.size(), -1);
  int n = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    if (s.job >= kTraceFileJobs) continue;
    written[i] = n;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"job\":%llu,"
                 "\"parent\":%d}}\n",
                 n++ ? "," : "", s.name, s.thread, double(s.start_ns) / 1e3,
                 double(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.job),
                 s.parent >= 0 ? written[static_cast<std::size_t>(s.parent)]
                               : -1);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

/// Runs every client's closed loop for `seconds`; returns the wall time.
double run_slice(const Workload& w, const PinMap& pins, Server& s,
                 std::vector<ClientState>& states, double seconds,
                 std::vector<SpanLog>* logs) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < s.clients.size(); ++c)
    threads.emplace_back([&, c] {
      client_loop(*s.clients[c], w, pins, deadline, states[c],
                  logs ? &(*logs)[c] : nullptr);
    });
  for (std::thread& t : threads) t.join();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Times one more set-up in a child process (`--setup-only`), so that
/// set-ups can be spread over the run without a second service sharing
/// this process's memory. Returns seconds, or nullopt on failure.
std::optional<double> setup_in_child(const Args& args) {
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) return std::nullopt;
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, out[1], 1);
  const std::string seed = std::to_string(args.seed);
  std::vector<const char*> argv = {args.self.c_str(), "--setup-only",
                                   "--workload", args.workload.c_str(),
                                   "--seed", seed.c_str(),
                                   "--recordd", args.recordd.c_str(),
                                   nullptr};
  pid_t pid = -1;
  const int rc =
      ::posix_spawn(&pid, args.self.c_str(), &fa, nullptr,
                    const_cast<char* const*>(argv.data()), environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(out[1]);
  std::string text;
  if (rc == 0) {
    char chunk[256];
    for (ssize_t n; (n = ::read(out[0], chunk, sizeof chunk)) > 0;)
      text.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(out[0]);
  int status = 0;
  if (rc != 0 || ::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0 || text.empty())
    return std::nullopt;
  return std::strtod(text.c_str(), nullptr);
}

int dump_pins() {
  Json doc = Json::object();
  Json order = Json::object();
  for (const char* section : {"inproc", "wire"}) {
    Json pins = Json::object();
    Json ids = Json::array();
    const bool wire = std::string_view(section) == "wire";
    for (const char* name : wire ? std::vector<const char*>{"socket-4w"}
                                 : std::vector<const char*>{"kernels-1w",
                                                            "chains-1w"}) {
      Workload w = *make_workload(name);
      std::vector<std::shared_ptr<const core::RetargetResult>> targets;
      for (const Target& t : w.targets) {
        util::DiagnosticSink diags;
        std::optional<core::RetargetResult> r = retarget(t, diags);
        if (!r) {
          std::fprintf(stderr, "pipebench: cannot retarget %s\n",
                       t.name.c_str());
          return 1;
        }
        targets.push_back(
            std::make_shared<const core::RetargetResult>(std::move(*r)));
      }
      for (const Pair& p : w.pairs) {
        util::DiagnosticSink diags;
        auto c = core::Compiler(targets[p.target])
                     .compile(*p.program, p.options, diags);
        pins.set(p.id, c ? Json(double(c->code_size()))
                         : Json(diags.first_error()));
        ids.push(Json(p.id));
      }
    }
    doc.set(section, std::move(pins));
    order.set(section, std::move(ids));
  }
  doc.set("order", std::move(order));
  std::printf("%s\n", doc.dump().c_str());
  return 0;
}

/// The per-layer metrics of a traced run: the traced spans and counts in
/// `lr`, the service's reported times from the untraced slices in `st`.
void add_layer_metrics(Metrics& m, const LayerReport& lr, const LoopStats& st,
                       const Workload& w) {
  m.add_pct("core.retarget_ms", lr.retarget_ms, "ms");
  for (std::size_t k = 0; k < kPhaseCount; ++k)
    m.add_pct(kPhases[k].metric, lr.phase_ms[k], "ms");
  m.add("burstab.states", lr.states, "count");
  m.add("burstab.transitions", lr.transitions, "count");
  m.add("burstab.constrained_rules", lr.constrained, "count");
  m.add("burstab.frozen_misses", lr.frozen_misses, "count");
  m.add("bdd.nodes_setup", lr.nodes_setup, "count");
  m.add("bdd.nodes_growth", lr.nodes_growth, "count");
  m.add_pct("ir.parse_us", span_us(lr.spans, "ir.parse"), "us");
  const std::vector<double> sel = span_us(lr.spans, "select");
  m.add_pct("select.us", sel, "us");
  m.add("select.nodes", double(lr.nodes), "count");
  m.add("select.ns_per_node",
        sum(sel) * 1e3 / double(std::max<std::size_t>(lr.traced_nodes, 1)),
        "ns");
  m.add_pct("sched.spill_us", span_us(lr.spans, "sched.spill"), "us");
  m.add("sched.spills_inserted", double(lr.spills), "count");
  m.add("sched.live_saves", double(lr.live_saves), "count");
  m.add_pct("compact.us", span_us(lr.spans, "compact"), "us");
  m.add("compact.input_rts", double(lr.compact.input_rts), "count");
  m.add("compact.words", double(lr.compact.words), "count");
  m.add("compact.multi_rt_words", double(lr.compact.multi_rt_words),
        "count");
  m.add("compact.pairs_rejected_encoding",
        double(lr.compact.pairs_rejected_encoding), "count");
  const std::vector<double> enc = span_us(lr.spans, "emit.encode");
  m.add_pct("emit.encode_us", enc, "us");
  m.add("emit.ns_per_word",
        sum(enc) * 1e3 / double(std::max<std::size_t>(lr.traced_words, 1)),
        "ns");
  std::vector<double> q, tg, fe, cm, net;
  for (const TimedReply& r : st.times) {
    const service::JobTimes& t = r.times;
    q.push_back(t.queue_ms);
    tg.push_back(t.target_ms);
    fe.push_back(t.frontend_ms);
    cm.push_back(t.compile_ms);
    net.push_back(r.latency_ms - t.queue_ms - t.target_ms - t.frontend_ms -
                  t.compile_ms);
  }
  m.add_pct("service.queue_ms", q, "ms");
  m.add_pct("service.target_ms", tg, "ms");
  m.add_pct("service.frontend_ms", fe, "ms");
  m.add_pct("service.compile_ms", cm, "ms");
  m.add_pct("net.overhead_ms", net, "ms");
  // Traced against untraced, pair by pair over the same pairs: the mean
  // traced job time over the mean service-reported frontend+compile time.
  double traced = 0, untraced = 0;  // ms
  for (std::size_t i = 0; i < w.pairs.size(); ++i) {
    if (lr.st.pair_n[i] == 0 || st.pair_n[i] == 0) continue;
    traced += lr.st.pair_ms[i] / double(lr.st.pair_n[i]);
    untraced += st.pair_ms[i] / double(st.pair_n[i]);
  }
  m.add("trace_overhead", untraced > 0 ? traced / untraced : 0, "ratio");
}

int usage() {
  std::fprintf(stderr,
               "usage: pipebench --workload kernels-1w|chains-1w|socket-4w "
               "--seed N --seconds S --trace 0|1 --pins FILE "
               "[--recordd PATH] [--out DIR]\n"
               "       pipebench --dump-pins\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) std::exit(usage());
      return argv[++i];
    };
    if (a == "--workload") args.workload = value();
    else if (a == "--seed")
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds")
      args.seconds = std::strtod(value().c_str(), nullptr);
    else if (a == "--trace") args.trace = value() == "1";
    else if (a == "--pins") args.pins = value();
    else if (a == "--recordd") args.recordd = value();
    else if (a == "--out") args.out = value();
    else if (a == "--dump-pins") args.dump_pins = true;
    else if (a == "--setup-only") args.setup_only = true;
    else return usage();
  }
  args.self = argv[0];
  if (args.dump_pins) return dump_pins();
  std::optional<Workload> wl = make_workload(args.workload);
  if (!wl || args.seconds <= 0) return usage();
  const Workload& w = *wl;
  if (w.socket && args.recordd.empty()) return usage();
  auto timed_set_up = [&](double* seconds) {
    std::string error;
    const Clock::time_point t0 = Clock::now();
    std::optional<Server> s = set_up(w, args, args.seed, &error);
    *seconds = ms_between(t0, Clock::now()) / 1e3;
    if (!s)
      std::fprintf(stderr, "pipebench: set-up failed: %s\n", error.c_str());
    return s;
  };
  if (args.setup_only) {
    double seconds = 0;
    if (!timed_set_up(&seconds)) return 1;
    std::printf("%.9f\n", seconds);
    return 0;
  }
  std::optional<PinMap> pins = load_pins(args.pins, w.socket);
  if (!pins) {
    std::fprintf(stderr, "pipebench: cannot read pins from '%s'\n",
                 args.pins.c_str());
    return 1;
  }
  for (const Pair& p : w.pairs)
    if (!pins->count(p.id)) {
      std::fprintf(stderr, "pipebench: no pin for %s\n", p.id.c_str());
      return 1;
    }

  // The set-up that serves the run, then the correctness reference.
  std::vector<double> setup_s(1);
  std::optional<Server> server = timed_set_up(&setup_s[0]);
  if (!server) return 1;
  Check ck = check_pairs(w, *pins, *server);
  for (const std::string& s : ck.skipped)
    std::fprintf(stderr, "pipebench: semantics skipped %s\n", s.c_str());

  // The timed closed loop, in slices. The host's speed drifts over
  // seconds, so untraced runs put one more set-up (in a child process)
  // between slices, keeping the median set-up from resting on one moment;
  // traced runs alternate service slices with traced slices, so that
  // trace_overhead compares the two at the same moments. Within a slice,
  // the first client samples the cache probe before each pass, and
  // single-client workloads move to the next CPU before each pass; each
  // slice counts the CPU time stolen during it (see HostSpeed).
  std::vector<ClientState> states;
  for (int c = 0; c < w.clients; ++c)
    states.emplace_back(w.pairs.size(), client_seed(args.seed, c));
  HostSpeed host;
  states[0].host = &host;
  CpuRotation rotation;
  if (w.clients == 1) states[0].rotation = &rotation;
  std::vector<SpanLog> service_logs;
  const Clock::time_point epoch = Clock::now();
  for (int c = 0; c < w.clients; ++c)
    service_logs.emplace_back(epoch, 100 + c);
  std::unique_ptr<Traced> traced;
  if (args.trace) {
    std::string error;
    traced = prepare_trace(w, args.seed, epoch, &error);
    if (!traced) {
      std::fprintf(stderr, "pipebench: traced run failed: %s\n",
                   error.c_str());
      return 1;
    }
    if (w.clients == 1) traced->rotation = &rotation;
  }
  const double slice_s =
      (args.trace ? args.seconds / 2 : args.seconds) / kSetupReps;
  double elapsed = 0;
  for (int k = 0; k < kSetupReps; ++k) {
    if (k > 0 && !traced) {
      rotation.release();
      std::optional<double> t = setup_in_child(args);
      if (!t) {
        std::fprintf(stderr, "pipebench: set-up in a child process failed\n");
        return 1;
      }
      setup_s.push_back(*t);
    }
    host.slice_begin();
    elapsed += run_slice(w, *pins, *server, states, slice_s,
                         traced ? &service_logs : nullptr);
    host.slice_end();
    if (traced) traced_slice(*traced, w, *pins, slice_s);
  }
  LoopStats st;
  for (const ClientState& c : states) st.merge(c.st);
  const double peak_rss_mb =
      w.socket ? server->daemon->peak_rss_mb()
               : [] {
                   rusage ru{};
                   ::getrusage(RUSAGE_SELF, &ru);
                   return double(ru.ru_maxrss) / 1024.0;
                 }();
  server.reset();

  std::size_t attempted = st.attempted;
  std::size_t failed = st.mismatched + ck.failed_pairs;
  Metrics m;
  if (!args.trace) {
    // Timings as on the reference host (see HostSpeed).
    const double slowdown = host.slowdown();
    m.add("setup_s", quantile(setup_s, 0.50) / slowdown, "s");
    m.add("jobs_per_s", double(st.attempted) / elapsed * slowdown, "1/s");
    m.add("latency_p50_ms", quantile(st.latency_ms, 0.50) / slowdown, "ms");
    m.add("latency_p99_ms", quantile(st.latency_ms, 0.99) / slowdown, "ms");
    if (st.latency_ms.size() < kMinJobs)
      std::fprintf(stderr,
                   "pipebench: warning: only %zu replies, fewer than %zu: "
                   "latency_p99_ms rests on fewer than %zu samples\n",
                   st.latency_ms.size(), kMinJobs, kMinJobs / 100);
    // Floored at one job in ten thousand, below what one run resolves, so
    // that it never reads 0 and a bound relative to the parent is defined.
    m.add("error_rate", std::max(kErrorRateFloor, st.error_share()),
          "ratio");
    m.add("code_words", double(ck.code_words), "words");
    m.add("sim_steps", double(ck.sim_steps), "steps");
    m.add("peak_rss_mb", peak_rss_mb, "MiB");
  } else {
    const LayerReport& lr = finish_trace(*traced);
    attempted += lr.st.attempted;
    failed += lr.st.mismatched;
    std::vector<SpanRec> spans = lr.spans;
    for (const SpanLog& l : service_logs) append_spans(spans, l);
    const std::string path = args.out + "/trace-" + w.name + "-" +
                             std::to_string(args.seed) + ".json";
    if (!write_trace(path, spans))
      std::fprintf(stderr, "pipebench: cannot write %s\n", path.c_str());

    add_layer_metrics(m, lr, st, w);
    m.add("host.probe_ns", host.ns_per_step(), "ns");
    m.add("host.steal_share", host.steal_share(), "ratio");
  }

  std::fprintf(stderr,
               "pipebench: %s seed %llu: %zu jobs in %.2f s (%zu with no "
               "code, %.1f%% of jobs); %zu distinct pairs (%zu sim-checked, "
               "%zu skipped, %zu refused); %zu failed\n",
               w.name.c_str(), static_cast<unsigned long long>(args.seed),
               st.attempted, elapsed, st.errors,
               st.attempted ? 100.0 * double(st.errors) / double(st.attempted)
                            : 0.0,
               w.pairs.size(), ck.checked,
               ck.skipped.size(), ck.refused, failed);
  std::fprintf(stderr,
               "pipebench: host probe %.2f ns per step, %.2f%% of CPU time "
               "stolen: %.3fx slower than the reference host; as measured: "
               "%.2f jobs/s, p50 %.4f ms, p99 %.4f ms, set-up %.4f s\n",
               host.ns_per_step(), 100.0 * host.steal_share(),
               host.slowdown(),
               double(st.attempted) / elapsed, quantile(st.latency_ms, 0.50),
               quantile(st.latency_ms, 0.99), quantile(setup_s, 0.50));
  const bool correct = failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", std::max<std::size_t>(attempted, 1),
              failed, m.json().c_str());
  return 0;
}

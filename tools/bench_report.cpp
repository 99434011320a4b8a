// bench_report: the repo's perf-trajectory recorder.
//
// Runs the selection-throughput and service-throughput workloads in a quick
// mode and merges the results into one machine-readable BENCH_selection.json
// (committed at the repo root each PR, uploaded as a CI artifact), so the
// performance of the warm selection path is tracked across commits:
//
//   selection: model x engine (interpreter | tables-frozen |
//              tables-frozen-obs) -> ns/node over the shared
//              accumulator-chain workload
//   service:   jobs/sec of the warm-registry mixed-model batch at 1 and N
//              workers, in-process (compile_batch) and over a pipelined
//              JSON-lines TCP socket session (transport field tells the
//              rows apart; the delta is the wire + event-loop overhead)
//
// --baseline <path> compares against a previously committed report and
// exits non-zero on a >25% regression — the CI perf gate. Because the
// committed baseline was measured on different hardware, the gated
// statistic is machine-normalised: per model, the median over reps of the
// tables-frozen / interpreter time ratio, each rep timing both engines back
// to back (CPU speed divides out of every ratio, and the median drops the
// reps a noise burst hit). The same ratio for the label stage alone is
// gated at the same tolerance: labelling is ~15-25% of selection time, so a
// table that stopped answering lookups barely moves the selection ratio but
// shows in the label one. A model the baseline lacks, or a baseline row
// without both ratios, fails the gate (regenerate the baseline). The
// absolute ns/node and jobs/sec are recorded for the trajectory but not
// gated.
//
// Usage: bench_report [--full] [--out <path>] [--baseline <path>]
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "burstab/tableparse.h"
#include "core/record.h"
#include "models/workload.h"
#include "net/server.h"
#include "obs/coverage.h"
#include "obs/metrics.h"
#include "select/selector.h"
#include "select/subject_map.h"
#include "service/json.h"
#include "service/service.h"
#include "util/timer.h"

using namespace record;

namespace {

struct SelRow {
  std::string model;
  std::string engine;
  std::size_t nodes = 0;
  double ns_per_node = 0;      // best-of-rounds mean
  double p50_ns_per_node = 0;  // per-rep distribution, for tail visibility
  double p99_ns_per_node = 0;
};

struct SvcRow {
  const char* transport = "in-process";
  std::size_t workers = 0;
  std::size_t jobs = 0;
  double jobs_per_sec = 0;
};

/// The accumulator-chain workload as kernel-language source — the same
/// program models::chain_program builds as IR, but in the form a socket
/// client actually sends, so the socket row pays the full request path
/// (JSON decode + frontend parse + selection + response encode).
std::string chain_kernel(const models::ChainShape& s, int k) {
  std::string src = "kernel chain;\nbind acc: ";
  src += s.acc;
  src += ";\n";
  std::string expr;
  for (int i = 0; i < k; ++i) {
    if (s.mem2[0] == '\0') {
      std::string v = "m" + std::to_string(i);
      src += "cell " + v + ": " + s.mem1 + "[" + std::to_string(i % 16) +
             "];\n";
      if (i) expr += " + ";
      expr += v;
    } else {
      std::string u = "u" + std::to_string(i);
      std::string v = "v" + std::to_string(i);
      src += "cell " + u + ": " + s.mem1 + "[" + std::to_string(i % 16) +
             "];\n";
      src += "cell " + v + ": " + s.mem2 + "[" +
             std::to_string((i + 1) % 16) + "];\n";
      if (i) expr += " + ";
      expr += u + " * " + v;
    }
  }
  src += "acc = " + expr + ";\n";
  return src;
}

constexpr double kRegressionTolerance = 1.25;  // fail beyond +25%

struct EngineRun {
  const char* name;
  const burstab::TargetTables* tables;
  obs::CoverageMap* cov;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0 : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Times every engine on `prog`, interleaved rep by rep so all engines see
/// the same machine state, and fills one row per engine. Returns the per-rep
/// ratios of engine 1's time to engine 0's, or an empty vector when a
/// selection fails.
std::vector<double> run_selection(const core::RetargetResult& target,
                                  const ir::Program& prog, int reps,
                                  const std::vector<EngineRun>& engines,
                                  std::vector<SelRow>& rows) {
  select::SelectScratch scratch;
  const auto time_one = [&](const EngineRun& e, SelRow& row) -> double {
    util::Timer timer;
    util::DiagnosticSink d;
    select::CodeSelector sel(*target.base, target.tree_grammar, d, e.tables,
                             &scratch);
    if (e.cov) sel.set_coverage(e.cov);
    auto result = sel.select(prog);
    const double ms = timer.milliseconds();
    row.nodes = sel.stats().nodes_labelled;
    return result ? ms : -1;
  };
  rows.assign(engines.size(), SelRow{});
  for (std::size_t i = 0; i < engines.size(); ++i)  // warm-up
    if (time_one(engines[i], rows[i]) < 0) return {};

  // Best-of-rounds per engine (the trajectory's ns_per_node) plus every
  // rep into a histogram for the tail (p50/p99).
  constexpr int kRounds = 5;
  std::vector<obs::Histogram> rep_ns(engines.size());
  std::vector<double> best_ms(engines.size(), -1);
  std::vector<double> ratios;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<double> round_ms(engines.size(), 0);
    for (int rep = 0; rep < reps; ++rep) {
      std::vector<double> ms(engines.size());
      for (std::size_t i = 0; i < engines.size(); ++i) {
        ms[i] = time_one(engines[i], rows[i]);
        if (ms[i] < 0) return {};
        round_ms[i] += ms[i];
        rep_ns[i].record(static_cast<std::int64_t>(ms[i] * 1e6));
      }
      ratios.push_back(ms[1] / ms[0]);
    }
    for (std::size_t i = 0; i < engines.size(); ++i) {
      const double mean = round_ms[i] / reps;
      if (best_ms[i] < 0 || mean < best_ms[i]) best_ms[i] = mean;
    }
  }
  for (std::size_t i = 0; i < engines.size(); ++i) {
    SelRow& row = rows[i];
    row.engine = engines[i].name;
    const double nodes = static_cast<double>(row.nodes);
    const obs::HistogramStats dist = rep_ns[i].stats();
    row.ns_per_node = best_ms[i] * 1e6 / nodes;
    row.p50_ns_per_node = static_cast<double>(dist.p50) / nodes;
    row.p99_ns_per_node = static_cast<double>(dist.p99) / nodes;
  }
  return ratios;
}

/// Label stage alone: per rep, the interpreter and then fresh TableParsers
/// (one job's overlay each) label every subject tree of `prog` kInner
/// times, back to back. Returns the median tables/interpreter time ratio,
/// or -1 when a statement does not map. Whole-selection times hide the
/// labeller behind the shared subject mapping, reduction and condition
/// work; this ratio moves with table hits versus label-time computation.
double label_ratio(const core::RetargetResult& target, const ir::Program& prog,
                   int reps) {
  constexpr int kInner = 20;  // each timed sample spans ~1 ms
  util::DiagnosticSink diags;
  select::SubjectMapper mapper(*target.base, target.tree_grammar, prog,
                               diags);
  std::vector<treeparse::SubjectTree> trees;
  for (const ir::Stmt& stmt : prog.stmts()) {
    if (stmt.kind != ir::Stmt::Kind::Assign &&
        stmt.kind != ir::Stmt::Kind::Store)
      continue;
    std::optional<treeparse::SubjectTree> tree = mapper.map_stmt(stmt);
    if (!tree) return -1;
    trees.push_back(std::move(*tree));
  }
  const treeparse::TreeParser interp(target.tree_grammar);
  treeparse::LabelResult out;
  std::vector<double> ratios;
  for (int rep = -1; rep < 5 * reps; ++rep) {  // rep -1 warms up
    util::Timer timer;
    for (int i = 0; i < kInner; ++i)
      for (const treeparse::SubjectTree& t : trees) interp.label_into(t, out);
    const double interp_ms = timer.milliseconds();
    timer.reset();
    for (int i = 0; i < kInner; ++i) {
      const burstab::TableParser tabular(target.tree_grammar, *target.tables);
      for (const treeparse::SubjectTree& t : trees) tabular.label_into(t, out);
    }
    if (rep >= 0) ratios.push_back(timer.milliseconds() / interp_ms);
  }
  return median(std::move(ratios));
}

/// Medians over reps of the tables-frozen / interpreter time ratio of one
/// model; both are gated.
struct GateRow {
  std::string model;
  double select = 0;  // whole selection
  double label = 0;   // label stage alone
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = true;
  std::string out_path = "BENCH_selection.json";
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--full")) quick = false;
    else if (!std::strcmp(argv[i], "--out") && i + 1 < argc)
      out_path = argv[++i];
    else if (!std::strcmp(argv[i], "--baseline") && i + 1 < argc)
      baseline_path = argv[++i];
    else {
      std::fprintf(stderr,
                   "usage: bench_report [--full] [--out path] "
                   "[--baseline path]\n");
      return 2;
    }
  }
  const int terms = quick ? 32 : 64;
  const int reps = quick ? 10 : 40;

  // --- selection ns/node per model x engine --------------------------------
  std::vector<SelRow> sel_rows;
  std::vector<GateRow> gate_rows;
  std::printf("selection ns/node (%d-term chains, %d reps)\n", terms, reps);
  std::printf("%-11s %-17s %8s %12s %10s %10s\n", "model", "engine", "nodes",
              "ns/node", "p50", "p99");
  for (const models::ChainShape& s : models::kChainShapes) {
    util::DiagnosticSink diags;
    core::RetargetOptions options;
    auto target = core::Record::retarget_model(s.model, options, diags);
    if (!target) {
      std::fprintf(stderr, "%s: retarget failed: %s\n", s.model,
                   diags.first_error().c_str());
      return 1;
    }
    ir::Program prog = models::chain_program(s, terms);

    // The third engine is the frozen tables once more with a live
    // CoverageMap attached, so the report tracks what rule/state/transition
    // recording costs on the hot labelling path (relative to the
    // tables-frozen row). Reported, not gated. With RECORD_OBS_DISABLE the
    // record calls compile out and the report flags the column as
    // compiled_out.
    obs::CoverageMap::Config cc;
    cc.rules = target->tree_grammar.rules().size();
    cc.states = target->tables->stats().states;
    cc.transitions = target->tables->frozen()->slot_count;
    obs::CoverageMap cov(s.model, std::move(cc));
    const std::vector<EngineRun> engines = {
        {"interpreter", nullptr, nullptr},
        {"tables-frozen", target->tables.get(), nullptr},
        {"tables-frozen-obs", target->tables.get(), &cov},
    };
    std::vector<SelRow> rows;
    const std::vector<double> ratios =
        run_selection(*target, prog, reps, engines, rows);
    if (ratios.empty()) {
      std::fprintf(stderr, "%s: selection failed\n", s.model);
      return 1;
    }
    for (SelRow& row : rows) {
      row.model = s.model;
      std::printf("%-11s %-17s %8zu %12.1f %10.1f %10.1f\n", s.model,
                  row.engine.c_str(), row.nodes, row.ns_per_node,
                  row.p50_ns_per_node, row.p99_ns_per_node);
      sel_rows.push_back(std::move(row));
    }
    const double label = label_ratio(*target, prog, reps);
    if (label < 0) {
      std::fprintf(stderr, "%s: subject mapping failed\n", s.model);
      return 1;
    }
    gate_rows.push_back(GateRow{s.model, median(ratios), label});
    std::printf("%-11s tables-frozen/interpreter median ratio: select %.3f, "
                "label %.3f\n",
                s.model, gate_rows.back().select, label);
  }

  // --- service jobs/sec ----------------------------------------------------
  std::vector<SvcRow> svc_rows;
  {
    const int sizes[] = {8, 32};
    const int job_reps = quick ? 4 : 8;
    std::vector<
        std::pair<const models::ChainShape*,
                  std::shared_ptr<const ir::Program>>>
        workload;
    for (const models::ChainShape& s : models::kChainShapes)
      for (int k : sizes)
        workload.emplace_back(
            &s, std::make_shared<const ir::Program>(chain_program(s, k)));

    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = 1;
    for (std::size_t workers : {std::size_t{1}, std::size_t(hw < 4 ? hw : 4)}) {
      if (!svc_rows.empty() && svc_rows.back().workers == workers) break;
      service::CompileService::Options so;
      so.workers = workers;
      service::CompileService svc(so);
      // Pre-warm the registry (retarget-only jobs), then time the batch.
      {
        std::vector<service::CompileJob> warm;
        for (const models::ChainShape& s : models::kChainShapes) {
          service::CompileJob j;
          j.model = s.model;
          warm.push_back(std::move(j));
        }
        (void)svc.compile_batch(std::move(warm));
      }
      std::vector<service::CompileJob> jobs;
      for (int rep = 0; rep < job_reps; ++rep)
        for (const auto& [shape, prog] : workload) {
          service::CompileJob j;
          j.model = shape->model;
          j.program = prog;
          j.want_listing = false;
          jobs.push_back(std::move(j));
        }
      util::Timer timer;
      std::vector<service::JobResult> results =
          svc.compile_batch(std::move(jobs));
      double seconds = timer.seconds();
      std::size_t ok = 0;
      for (const service::JobResult& r : results)
        if (r.ok) ++ok;
      if (ok != results.size()) {
        std::fprintf(stderr, "service: %zu/%zu jobs failed\n",
                     results.size() - ok, results.size());
        return 1;
      }
      SvcRow row;
      row.workers = workers;
      row.jobs = results.size();
      row.jobs_per_sec = static_cast<double>(results.size()) / seconds;
      std::printf("service: %zu workers, %zu jobs -> %.1f jobs/sec "
                  "(in-process)\n",
                  row.workers, row.jobs, row.jobs_per_sec);
      svc_rows.push_back(row);
    }
  }

  // --- service jobs/sec over the socket ------------------------------------
  // Same mixed-model batch, but pipelined through recordd's event loop as
  // one JSON-lines TCP session: requests carry kernel source, so each job
  // also pays JSON decode + frontend parse + response encode. Compared with
  // the in-process rows above this isolates the wire overhead.
  {
    const int sizes[] = {8, 32};
    const int job_reps = quick ? 4 : 8;
    std::string batch;
    std::size_t job_count = 0;
    for (int rep = 0; rep < job_reps; ++rep)
      for (const models::ChainShape& s : models::kChainShapes)
        for (int k : sizes) {
          service::Json req = service::Json::object();
          req.set("model", s.model);
          req.set("source", chain_kernel(s, k));
          batch += req.dump();
          batch += '\n';
          ++job_count;
        }

    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = 1;
    std::size_t prev_workers = 0;
    for (std::size_t workers : {std::size_t{1}, std::size_t(hw < 4 ? hw : 4)}) {
      if (workers == prev_workers) break;
      prev_workers = workers;
      service::CompileService::Options so;
      so.workers = workers;
      service::CompileService svc(so);
      {  // pre-warm the registry (retarget-only jobs)
        std::vector<service::CompileJob> warm;
        for (const models::ChainShape& s : models::kChainShapes) {
          service::CompileJob j;
          j.model = s.model;
          warm.push_back(std::move(j));
        }
        (void)svc.compile_batch(std::move(warm));
      }
      net::LineServer server(svc, {});
      std::string err;
      if (!server.start(&err)) {
        std::fprintf(stderr, "service/socket: start failed: %s\n",
                     err.c_str());
        return 1;
      }
      int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(server.port());
      inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
      if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                              sizeof addr) != 0) {
        std::fprintf(stderr, "service/socket: connect failed\n");
        return 1;
      }
      util::Timer timer;
      for (std::size_t off = 0; off < batch.size();) {
        ssize_t n = ::send(fd, batch.data() + off, batch.size() - off, 0);
        if (n <= 0) {
          std::fprintf(stderr, "service/socket: send failed\n");
          return 1;
        }
        off += static_cast<std::size_t>(n);
      }
      std::string responses;
      std::size_t lines = 0;
      char buf[16384];
      while (lines < job_count) {
        ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0) {
          std::fprintf(stderr, "service/socket: connection lost\n");
          return 1;
        }
        for (ssize_t i = 0; i < n; ++i)
          if (buf[i] == '\n') ++lines;
        responses.append(buf, static_cast<std::size_t>(n));
      }
      double seconds = timer.seconds();
      ::close(fd);
      server.stop();
      std::size_t ok = 0, pos = 0;
      while (pos < responses.size()) {
        std::size_t nl = responses.find('\n', pos);
        if (nl == std::string::npos) break;
        auto parsed = service::Json::parse(
            std::string_view(responses).substr(pos, nl - pos));
        if (parsed && (*parsed)["ok"].as_bool()) ++ok;
        pos = nl + 1;
      }
      if (ok != job_count) {
        std::fprintf(stderr, "service/socket: %zu/%zu jobs failed\n",
                     job_count - ok, job_count);
        return 1;
      }
      SvcRow row;
      row.transport = "socket";
      row.workers = workers;
      row.jobs = job_count;
      row.jobs_per_sec = static_cast<double>(job_count) / seconds;
      std::printf("service: %zu workers, %zu jobs -> %.1f jobs/sec "
                  "(socket)\n",
                  row.workers, row.jobs, row.jobs_per_sec);
      svc_rows.push_back(row);
    }
  }

  // --- merged report -------------------------------------------------------
  service::Json report = service::Json::object();
  report.set("benchmark", "bench_report");
  report.set("quick", quick);
  report.set("schema",
             "selection: model x engine -> ns/node; service: jobs/sec");
  service::Json selection = service::Json::array();
  for (const SelRow& r : sel_rows) {
    service::Json row = service::Json::object();
    row.set("model", r.model);
    row.set("engine", r.engine);
    row.set("nodes", static_cast<double>(r.nodes));
    row.set("ns_per_node", r.ns_per_node);
    row.set("p50_ns_per_node", r.p50_ns_per_node);
    row.set("p99_ns_per_node", r.p99_ns_per_node);
    selection.push(std::move(row));
  }
  report.set("selection", std::move(selection));
  service::Json gate = service::Json::array();
  for (const GateRow& g : gate_rows) {
    service::Json row = service::Json::object();
    row.set("model", g.model);
    row.set("frozen_over_interpreter_median", g.select);
    row.set("label_frozen_over_interpreter_median", g.label);
    gate.push(std::move(row));
  }
  report.set("gate", std::move(gate));
  // Coverage-recording overhead on the warm frozen-table path, per model:
  // tables-frozen-obs ns/node over tables-frozen ns/node, measured in the
  // same run so machine speed divides out.
  {
    service::Json overhead = service::Json::array();
    for (const models::ChainShape& s : models::kChainShapes) {
      double frozen = 0, with_obs = 0;
      for (const SelRow& r : sel_rows) {
        if (r.model != s.model) continue;
        if (r.engine == "tables-frozen") frozen = r.ns_per_node;
        if (r.engine == "tables-frozen-obs") with_obs = r.ns_per_node;
      }
      if (frozen <= 0 || with_obs <= 0) continue;
      service::Json row = service::Json::object();
      row.set("model", s.model);
      row.set("obs_over_frozen_ratio", with_obs / frozen);
#ifdef RECORD_OBS_DISABLE
      row.set("compiled_out", true);
#else
      row.set("compiled_out", false);
#endif
      overhead.push(std::move(row));
    }
    report.set("obs_overhead", std::move(overhead));
  }
  service::Json svc = service::Json::array();
  for (const SvcRow& r : svc_rows) {
    service::Json row = service::Json::object();
    row.set("transport", std::string(r.transport));
    row.set("workers", static_cast<double>(r.workers));
    row.set("jobs", static_cast<double>(r.jobs));
    row.set("jobs_per_sec", r.jobs_per_sec);
    svc.push(std::move(row));
  }
  report.set("service", std::move(svc));

  // --- regression gate vs a committed baseline -----------------------------
  int regressions = 0;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "baseline %s not readable\n",
                   baseline_path.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::optional<service::Json> base = service::Json::parse(buf.str());
    if (!base) {
      std::fprintf(stderr, "baseline %s is not valid JSON\n",
                   baseline_path.c_str());
      return 1;
    }
    // Gate the median same-run frozen/interpreter ratios per model (whole
    // selection and label stage): both engines are timed back to back in
    // every rep, so the ratios are stable across machines; comparing
    // absolute timings against a baseline from different hardware would
    // gate on the runner, not the code.
    const service::Json& bgate = (*base)["gate"];
    if (bgate.size() == 0) {
      std::fprintf(stderr, "baseline %s has no gate rows; regenerate it\n",
                   baseline_path.c_str());
      return 1;
    }
    for (const GateRow& g : gate_rows) {
      double before = -1, label_before = -1;
      for (std::size_t i = 0; i < bgate.size(); ++i)
        if (bgate.at(i)["model"].as_string() == g.model) {
          before =
              bgate.at(i)["frozen_over_interpreter_median"].as_number(-1);
          label_before = bgate.at(i)["label_frozen_over_interpreter_median"]
                             .as_number(-1);
        }
      if (before <= 0 || label_before <= 0) {
        std::fprintf(stderr,
                     "baseline %s has no select and label ratios for %s; "
                     "regenerate it\n",
                     baseline_path.c_str(), g.model.c_str());
        return 1;
      }
      std::printf("gate %-11s %.3f -> %.3f (%+.0f%%); label %.3f -> %.3f "
                  "(%+.0f%%)\n",
                  g.model.c_str(), before, g.select,
                  (g.select / before - 1) * 100, label_before, g.label,
                  (g.label / label_before - 1) * 100);
      auto check = [&](const char* stage, double was, double now) {
        if (now <= was * kRegressionTolerance) return;
        std::fprintf(stderr,
                     "REGRESSION %s: %stables-frozen/interpreter median "
                     "ratio %.3f -> %.3f (+%.0f%%)\n",
                     g.model.c_str(), stage, was, now, (now / was - 1) * 100);
        ++regressions;
      };
      check("", before, g.select);
      check("label ", label_before, g.label);
    }
  }

  std::ofstream out(out_path);
  out << report.dump() << "\n";
  std::printf("wrote %s\n", out_path.c_str());
  if (regressions > 0) {
    std::fprintf(stderr, "%d perf regression(s) beyond 25%%\n", regressions);
    return 1;
  }
  return 0;
}

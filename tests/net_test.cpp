// Socket front end (src/net/): protocol equivalence against the sequential
// baseline, framing robustness, backpressure, and registry sharding.
#include <gtest/gtest.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/server.h"
#include "net/shard.h"
#include "net/timerwheel.h"
#include "obs/metrics.h"
#include "service/json.h"
#include "service/service.h"
#include "service/wire.h"
#include "util/failpoint.h"

using namespace record;
using service::Json;

namespace {

constexpr const char* kKernel =
    "kernel k;\\nbind a: R0;\\ncell x: mem[1];\\na = a + x;";

std::string compile_request(const std::string& tag, const std::string& model,
                            bool listing = false) {
  return "{\"model\": \"" + model + "\", \"tag\": \"" + tag +
         "\", \"source\": \"" + kKernel +
         "\", \"options\": {\"listing\": " + (listing ? "true" : "false") +
         "}}";
}

/// Blocking test client over one connection; reads are line-buffered with a
/// receive timeout so a server bug fails the test instead of hanging it.
struct Client {
  int fd = -1;
  std::string buffered;

  static Client connect_tcp(std::uint16_t port) {
    Client c;
    c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(c.fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0)
        << std::strerror(errno);
    c.set_timeout();
    return c;
  }

  /// One end of a socketpair whose other end `server` adopts — the way
  /// recordd serves stdio.
  static Client adopted_by(net::LineServer& server) {
    Client c;
    int sv[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0)
        << std::strerror(errno);
    std::string error;
    EXPECT_TRUE(server.adopt(sv[0], &error)) << error;
    c.fd = sv[1];
    c.set_timeout();
    return c;
  }

  static Client connect_unix(const std::string& path) {
    Client c;
    c.fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(c.fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    EXPECT_EQ(::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0)
        << std::strerror(errno);
    c.set_timeout();
    return c;
  }

  void set_timeout(int seconds = 60) {
    timeval tv{};
    tv.tv_sec = seconds;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }

  void send_line(const std::string& line) {
    std::string framed = line + "\n";
    ASSERT_EQ(::send(fd, framed.data(), framed.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(framed.size()));
  }

  /// One response line (without the newline); empty on EOF/timeout.
  std::string read_line() {
    for (;;) {
      std::size_t nl = buffered.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffered.substr(0, nl);
        buffered.erase(0, nl + 1);
        return line;
      }
      char buf[65536];
      ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) return {};
      buffered.append(buf, static_cast<std::size_t>(n));
    }
  }

  void close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  ~Client() { close(); }
  Client() = default;
  Client(Client&& o) noexcept : fd(o.fd), buffered(std::move(o.buffered)) {
    o.fd = -1;
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
};

/// Responses carry wall-clock timings that legitimately differ between runs;
/// equality is over everything else. Both sides get "times" nulled the same
/// way, then the comparison is on exact bytes.
std::string normalize(const std::string& response_line) {
  std::optional<Json> parsed = Json::parse(response_line);
  if (!parsed) return "<unparseable: " + response_line + ">";
  if (parsed->contains("times")) parsed->set("times", Json());
  return parsed->dump();
}

}  // namespace

TEST(ShardRing, DeterministicAndCovering) {
  net::ShardRing a(4), b(4);
  std::set<std::size_t> owners;
  for (std::uint64_t key = 0; key < 1000; ++key) {
    std::size_t owner = a.owner_of(key * 0x9E3779B97F4A7C15ull);
    EXPECT_EQ(owner, b.owner_of(key * 0x9E3779B97F4A7C15ull));
    EXPECT_LT(owner, 4u);
    owners.insert(owner);
  }
  EXPECT_EQ(owners.size(), 4u) << "some shard owns nothing";

  // Consistent hashing: growing the ring by one shard remaps only part of
  // the key space (modulo hashing would remap ~all of it).
  net::ShardRing grown(5);
  std::size_t moved = 0;
  for (std::uint64_t key = 0; key < 1000; ++key) {
    std::uint64_t k = key * 0x9E3779B97F4A7C15ull;
    if (a.owner_of(k) != grown.owner_of(k)) ++moved;
  }
  EXPECT_LT(moved, 600u) << "ring growth remapped almost everything";
  EXPECT_GT(moved, 0u);
}

TEST(LineServer, PipelinedClientsMatchSequentialBaseline) {
  service::CompileService::Options opts;
  opts.workers = 4;
  opts.queue_capacity = 8;
  service::CompileService svc(opts);
  net::LineServer server(svc, net::LineServer::Options{});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_GT(server.port(), 0);

  // 4 TCP clients plus one adopted socketpair (the stdio transport), each
  // pipelining its whole request batch up front (listings on and compile
  // errors).
  constexpr int kClients = 5;
  constexpr int kPerClient = 6;
  std::vector<std::vector<std::string>> requests(kClients);
  for (int c = 0; c < kClients; ++c) {
    for (int r = 0; r < kPerClient; ++r) {
      std::string tag = "c" + std::to_string(c) + "r" + std::to_string(r);
      if (r == 2) {
        requests[c].push_back(compile_request(tag, "nosuchmodel"));
      } else if (r == 4) {
        requests[c].push_back(compile_request(tag, "demo", true));
      } else {
        requests[c].push_back(compile_request(tag, "demo"));
      }
    }
  }

  // The sequential baseline shares the exact job core (run_job) and codec
  // (wire.h) with the server, so the equality below proves the socket path
  // changes nothing about the answers.
  std::vector<std::vector<std::string>> expected(kClients);
  for (int c = 0; c < kClients; ++c) {
    for (const std::string& line : requests[c]) {
      std::optional<Json> request = Json::parse(line);
      ASSERT_TRUE(request) << line;
      service::JobResult result = service::CompileService::run_job(
          service::job_from_request(*request, false), svc.registry());
      expected[c].push_back(
          normalize(service::response_from_result(result).dump()));
    }
  }

  std::vector<Client> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c)
    clients.push_back(c == kClients - 1 ? Client::adopted_by(server)
                                        : Client::connect_tcp(server.port()));
  std::vector<std::vector<std::string>> got(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client& client = clients[c];
      for (const std::string& line : requests[c]) client.send_line(line);
      for (int r = 0; r < kPerClient; ++r)
        got[c].push_back(normalize(client.read_line()));
    });
  }
  for (std::thread& t : threads) t.join();

  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(got[c].size(), expected[c].size());
    for (int r = 0; r < kPerClient; ++r)
      EXPECT_EQ(got[c][r], expected[c][r]) << "client " << c << " response "
                                           << r;
  }
  server.stop();
}

TEST(LineServer, AdoptedStdioConnectionAnswersInOrderThenCloses) {
  // recordd's stdio contract, on a server with no listener: blank lines
  // are skipped but counted in line numbers, non-objects are bad requests,
  // a stats command counts the jobs answered above it, and a half-close
  // flushes every answer in order before the server closes.
  service::CompileService::Options opts;
  opts.workers = 2;
  service::CompileService svc(opts);
  net::LineServer server(svc, net::LineServer::Options{});
  Client client = Client::adopted_by(server);
  EXPECT_EQ(server.port(), 0);

  client.send_line(compile_request("a", "demo"));
  client.send_line("");
  client.send_line("[1,2]");
  client.send_line(compile_request("b", "demo"));
  client.send_line("{\"cmd\": \"stats\"}");
  client.send_line(compile_request("c", "demo"));
  ASSERT_EQ(::shutdown(client.fd, SHUT_WR), 0);

  std::vector<std::optional<Json>> replies;
  for (int r = 0; r < 5; ++r)
    replies.push_back(Json::parse(client.read_line()));
  for (const std::optional<Json>& reply : replies) ASSERT_TRUE(reply);
  EXPECT_EQ((*replies[0])["tag"].as_string(), "a");
  EXPECT_EQ((*replies[1])["error"].as_string(),
            "line 3: bad request: not an object");
  EXPECT_EQ((*replies[2])["tag"].as_string(), "b");
  EXPECT_EQ((*replies[3])["cmd"].as_string(), "stats");
  // "c" may finish first too; "a" and "b" must be counted.
  EXPECT_GE((*replies[3])["service"]["completed"].as_int(-1), 2);
  EXPECT_EQ((*replies[4])["tag"].as_string(), "c");
  EXPECT_TRUE((*replies[4])["ok"].as_bool(false));
  EXPECT_EQ(client.read_line(), "") << "connection stayed open after EOF";
  server.stop();
}

TEST(LineServer, MoreBufferedLinesThanPipelineSlotsAreAllAnswered) {
  // Past the 512 in-flight slots, lines wait in the input buffer. Answers
  // that free slots must parse them even with no read event left: here all
  // input, EOF included, is buffered before the first answer flushes.
  service::CompileService::Options opts;
  opts.workers = 1;
  service::CompileService svc(opts);
  net::LineServer server(svc, net::LineServer::Options{});
  Client client = Client::adopted_by(server);
  constexpr int kLines = 1200;
  std::string burst;
  for (int r = 0; r < kLines; ++r) burst += "[" + std::to_string(r) + "]\n";
  ASSERT_EQ(::send(client.fd, burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));
  ASSERT_EQ(::shutdown(client.fd, SHUT_WR), 0);
  for (int r = 0; r < kLines; ++r) {
    std::optional<Json> reply = Json::parse(client.read_line());
    ASSERT_TRUE(reply) << "answer " << r << " lost";
    EXPECT_EQ((*reply)["error"].as_string(),
              "line " + std::to_string(r + 1) + ": bad request: not an object");
  }
  EXPECT_EQ(client.read_line(), "");
  server.stop();
}

TEST(LineServer, MalformedLineAnswersErrorAndConnectionSurvives) {
  service::CompileService::Options opts;
  opts.workers = 2;
  service::CompileService svc(opts);
  net::LineServer server(svc, net::LineServer::Options{});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client = Client::connect_tcp(server.port());
  client.send_line("this is not json");
  client.send_line("[1,2,3]");  // valid JSON, not an object
  client.send_line(compile_request("after", "demo"));

  std::optional<Json> first = Json::parse(client.read_line());
  ASSERT_TRUE(first);
  EXPECT_FALSE((*first)["ok"].as_bool(true));
  EXPECT_NE((*first)["error"].as_string().find("bad request"),
            std::string::npos);
  std::optional<Json> second = Json::parse(client.read_line());
  ASSERT_TRUE(second);
  EXPECT_FALSE((*second)["ok"].as_bool(true));
  std::optional<Json> third = Json::parse(client.read_line());
  ASSERT_TRUE(third);
  EXPECT_TRUE((*third)["ok"].as_bool(false))
      << "connection did not survive the bad lines";
  EXPECT_EQ((*third)["tag"].as_string(), "after");
  server.stop();
}

TEST(LineServer, OversizedLineFailsTheConnectionOnly) {
  service::CompileService::Options opts;
  opts.workers = 2;
  service::CompileService svc(opts);
  net::LineServer::Options sopts;
  sopts.max_line = 1024;
  net::LineServer server(svc, sopts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client victim = Client::connect_tcp(server.port());
  std::string huge(4096, 'x');
  victim.send_line(huge);
  std::optional<Json> reply = Json::parse(victim.read_line());
  ASSERT_TRUE(reply);
  EXPECT_FALSE((*reply)["ok"].as_bool(true));
  EXPECT_NE((*reply)["error"].as_string().find("too long"),
            std::string::npos);
  EXPECT_TRUE(victim.read_line().empty()) << "connection stayed open";

  // The server itself is unharmed: a fresh connection compiles fine.
  Client fresh = Client::connect_tcp(server.port());
  fresh.send_line(compile_request("fresh", "demo"));
  std::optional<Json> ok = Json::parse(fresh.read_line());
  ASSERT_TRUE(ok);
  EXPECT_TRUE((*ok)["ok"].as_bool(false));
  server.stop();
}

TEST(LineServer, SlowReaderBackpressureLosesNothing) {
  // A tiny compile queue and a 1-byte write watermark force both
  // backpressure paths: try_submit_async rejections park jobs, and the
  // unread responses pause the connection's reads. The client then drains
  // everything and must see every response, in order.
  service::CompileService::Options opts;
  opts.workers = 2;
  opts.queue_capacity = 1;
  service::CompileService svc(opts);
  net::LineServer::Options sopts;
  sopts.max_write_buffer = 1;
  net::LineServer server(svc, sopts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  constexpr int kRequests = 24;
  Client client = Client::connect_tcp(server.port());
  for (int r = 0; r < kRequests; ++r)
    client.send_line(
        compile_request("slow" + std::to_string(r), "demo", true));
  // Do not read yet: let responses pile up against the watermark.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  for (int r = 0; r < kRequests; ++r) {
    std::optional<Json> reply = Json::parse(client.read_line());
    ASSERT_TRUE(reply) << "response " << r << " lost";
    EXPECT_EQ((*reply)["tag"].as_string(), "slow" + std::to_string(r))
        << "responses out of order";
    EXPECT_TRUE((*reply)["ok"].as_bool(false));
  }
  server.stop();
}

TEST(LineServer, ClientDisconnectMidStreamLeavesServerServing) {
  service::CompileService::Options opts;
  opts.workers = 2;
  service::CompileService svc(opts);
  net::LineServer server(svc, net::LineServer::Options{});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  {
    Client doomed = Client::connect_tcp(server.port());
    for (int r = 0; r < 8; ++r)
      doomed.send_line(compile_request("doomed" + std::to_string(r), "demo",
                                       true));
    doomed.close();  // vanish with every response still in flight
  }
  // The dropped connection must not take the daemon down (SIGPIPE/EPIPE on
  // the write path) nor wedge the loop.
  Client survivor = Client::connect_tcp(server.port());
  survivor.send_line(compile_request("live", "demo"));
  std::optional<Json> reply = Json::parse(survivor.read_line());
  ASSERT_TRUE(reply);
  EXPECT_TRUE((*reply)["ok"].as_bool(false));
  EXPECT_EQ((*reply)["tag"].as_string(), "live");
  server.stop();
}

TEST(LineServer, UnixSocketServes) {
  std::string path =
      (std::filesystem::temp_directory_path() / "recordd-test.sock").string();
  service::CompileService::Options opts;
  opts.workers = 2;
  service::CompileService svc(opts);
  net::LineServer::Options sopts;
  sopts.unix_path = path;
  net::LineServer server(svc, sopts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client = Client::connect_unix(path);
  client.send_line(compile_request("ux", "demo"));
  std::optional<Json> reply = Json::parse(client.read_line());
  ASSERT_TRUE(reply);
  EXPECT_TRUE((*reply)["ok"].as_bool(false));
  server.stop();
  EXPECT_FALSE(std::filesystem::exists(path)) << "socket file not unlinked";
}

TEST(LineServer, ShardingRejectsForeignTargetsAndReportsOwnership) {
  service::CompileService::Options opts;
  opts.workers = 2;
  service::CompileService svc(opts);

  // Compute each model's owner the way every instance would.
  core::RetargetOptions ropts = svc.registry().options().retarget;
  net::ShardRing ring(2);
  auto owner_of_model = [&](const std::string& model) {
    std::optional<Json> req =
        Json::parse("{\"model\": \"" + model + "\"}");
    return ring.owner_of(net::target_key_of(*req, ropts));
  };
  std::size_t demo_owner = owner_of_model("demo");

  // Run the instance that does NOT own "demo".
  net::LineServer::Options sopts;
  sopts.shard.count = 2;
  sopts.shard.index = 1 - demo_owner;
  net::LineServer server(svc, sopts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client = Client::connect_tcp(server.port());
  client.send_line(compile_request("foreign", "demo"));
  std::optional<Json> rejected = Json::parse(client.read_line());
  ASSERT_TRUE(rejected);
  EXPECT_FALSE((*rejected)["ok"].as_bool(true));
  EXPECT_EQ((*rejected)["owner"].as_int(-1),
            static_cast<std::int64_t>(demo_owner));
  EXPECT_EQ((*rejected)["shards"].as_int(0), 2);

  // The shard introspection command agrees.
  client.send_line("{\"cmd\": \"shard\", \"model\": \"demo\"}");
  std::optional<Json> info = Json::parse(client.read_line());
  ASSERT_TRUE(info);
  EXPECT_TRUE((*info)["ok"].as_bool(false));
  EXPECT_EQ((*info)["shards"].as_int(0), 2);
  EXPECT_EQ((*info)["owner"].as_int(-1),
            static_cast<std::int64_t>(demo_owner));
  EXPECT_FALSE((*info)["owned"].as_bool(true));
  server.stop();
}

TEST(TimerWheel, ArmsCancelsRearmsAndExpires) {
  net::TimerWheel wheel(64);
  EXPECT_EQ(wheel.next_timeout_ms(0), -1);  // nothing armed

  wheel.arm(1, 100);
  wheel.arm(2, 200);
  wheel.arm(3, 5'000'000);  // far future: wait is clamped to one minute
  EXPECT_EQ(wheel.next_timeout_ms(0), 100);
  EXPECT_EQ(wheel.next_timeout_ms(50), 50);
  EXPECT_EQ(wheel.next_timeout_ms(150), 0);  // timer 1 is already due

  std::vector<std::uint64_t> fired;
  wheel.expire(99, fired);
  EXPECT_TRUE(fired.empty());  // nothing due yet

  wheel.cancel(1);
  wheel.arm(2, 400);  // re-arm: only the new deadline counts
  wheel.expire(300, fired);
  EXPECT_TRUE(fired.empty());  // 1 cancelled, 2 moved to 400
  wheel.expire(450, fired);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 2u);
  EXPECT_EQ(wheel.armed(), 1u);  // only the far-future timer remains

  // A deadline armed in the past lands in the next unscanned tick (its own
  // was already swept), so it fires up to one tick late — at 512 here, one
  // tick past the 450 sweep — but never silently skips.
  fired.clear();
  wheel.arm(4, 10);
  wheel.expire(520, fired);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 4u);

  // A gap far longer than one wheel revolution must not skip timers.
  fired.clear();
  wheel.arm(5, 600);
  wheel.expire(600 + 64 * 256 * 3, fired);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 5u);

  EXPECT_EQ(wheel.next_timeout_ms(5'000'000), 0);
  fired.clear();
  wheel.expire(5'000'000, fired);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 3u);
  EXPECT_EQ(wheel.armed(), 0u);
}

TEST(LineServer, IdleConnectionsAreClosedAndCounted) {
  service::CompileService::Options opts;
  opts.workers = 1;
  service::CompileService svc(opts);
  net::LineServer::Options sopts;
  sopts.idle_timeout_ms = 150;
  net::LineServer server(svc, sopts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const std::uint64_t closed_before =
      obs::metrics().counter("net.conn.idle_closed").value();
  Client client = Client::connect_tcp(server.port());
  // Activity resets the idle clock: a served request does not count as idle.
  client.send_line(compile_request("warm", "demo"));
  std::optional<Json> reply = Json::parse(client.read_line());
  ASSERT_TRUE(reply);
  EXPECT_TRUE((*reply)["ok"].as_bool(false));
  // Then the connection goes quiet; the server must close it (EOF on read).
  EXPECT_EQ(client.read_line(), "");
  EXPECT_EQ(obs::metrics().counter("net.conn.idle_closed").value(),
            closed_before + 1);

  // The listener itself keeps serving fresh connections.
  Client fresh = Client::connect_tcp(server.port());
  fresh.send_line(compile_request("fresh", "demo"));
  std::optional<Json> ok = Json::parse(fresh.read_line());
  ASSERT_TRUE(ok);
  EXPECT_TRUE((*ok)["ok"].as_bool(false));
  server.stop();
}

TEST(LineServer, SaturationShedsOldestParkedWithBackoffHint) {
  // One connection can hold at most one parked request (parse_lines stops
  // at a parked head to preserve order), so saturation shedding is a
  // cross-connection affair: a later client's park evicts the globally
  // oldest parked request of an earlier one.
  util::failpoint_disarm_all();
  service::CompileService::Options opts;
  opts.workers = 1;
  opts.queue_capacity = 1;
  service::CompileService svc(opts);
  // Slow every job so the queue fills and requests park on the connections.
  ASSERT_TRUE(util::failpoint_arm("service.worker.job", "sleep:60"));

  net::LineServer::Options sopts;
  sopts.max_parked = 1;  // server saturates after one parked request
  net::LineServer server(svc, sopts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const std::uint64_t shed_before =
      obs::metrics().counter("net.shed").value();
  // First client: r0 runs (worker sleeps 60ms), r1 queues, r2 parks.
  Client first = Client::connect_tcp(server.port());
  for (int r = 0; r < 3; ++r)
    first.send_line(compile_request("a" + std::to_string(r), "demo"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // Second client: its park hits the max_parked=1 budget and sheds a2.
  Client second = Client::connect_tcp(server.port());
  for (int r = 0; r < 2; ++r)
    second.send_line(compile_request("b" + std::to_string(r), "demo"));

  int ok = 0, overloaded = 0;
  auto drain = [&](Client& client, const char* prefix, int n) {
    for (int r = 0; r < n; ++r) {
      std::optional<Json> reply = Json::parse(client.read_line());
      ASSERT_TRUE(reply) << prefix << r;
      // Pipelining order survives shedding: responses match request order.
      EXPECT_EQ((*reply)["tag"].as_string(), prefix + std::to_string(r));
      if ((*reply)["ok"].as_bool(false)) {
        ++ok;
      } else {
        ++overloaded;
        EXPECT_NE((*reply)["error"].as_string().find("overloaded"),
                  std::string::npos)
            << (*reply)["error"].as_string();
        EXPECT_GE((*reply)["retry_after_ms"].as_int(0), 1);
      }
    }
  };
  drain(first, "a", 3);
  drain(second, "b", 2);
  util::failpoint_disarm_all();
  EXPECT_EQ(ok + overloaded, 5);
  EXPECT_GT(ok, 0);          // the server still does real work
  EXPECT_GT(overloaded, 0);  // and it genuinely shed under saturation
  EXPECT_GE(obs::metrics().counter("net.shed").value(),
            shed_before + static_cast<std::uint64_t>(overloaded));
  server.stop();
}

TEST(LineServer, ParkedRequestsShedAfterRequestTimeout) {
  util::failpoint_disarm_all();
  service::CompileService::Options opts;
  opts.workers = 1;
  opts.queue_capacity = 1;
  service::CompileService svc(opts);
  ASSERT_TRUE(util::failpoint_arm("service.worker.job", "sleep:50"));

  net::LineServer::Options sopts;
  sopts.request_timeout_ms = 30;  // parked longer than this = shed
  net::LineServer server(svc, sopts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  constexpr int kRequests = 5;
  Client client = Client::connect_tcp(server.port());
  for (int r = 0; r < kRequests; ++r)
    client.send_line(compile_request("t" + std::to_string(r), "demo"));

  int ok = 0, timed_out = 0;
  for (int r = 0; r < kRequests; ++r) {
    std::optional<Json> reply = Json::parse(client.read_line());
    ASSERT_TRUE(reply) << "response " << r;
    EXPECT_EQ((*reply)["tag"].as_string(), "t" + std::to_string(r));
    if ((*reply)["ok"].as_bool(false)) {
      ++ok;
    } else {
      ++timed_out;
      EXPECT_NE((*reply)["error"].as_string().find("timed out"),
                std::string::npos)
          << (*reply)["error"].as_string();
      EXPECT_GE((*reply)["retry_after_ms"].as_int(0), 1);
    }
  }
  util::failpoint_disarm_all();
  EXPECT_EQ(ok + timed_out, kRequests);
  EXPECT_GT(timed_out, 0);
  server.stop();
}

TEST(LineServer, DeadlineRidesTheWireEndToEnd) {
  util::failpoint_disarm_all();
  service::CompileService::Options opts;
  opts.workers = 1;
  opts.queue_capacity = 8;
  service::CompileService svc(opts);
  // The head job stalls the lone worker long enough for the 1ms-deadline
  // job queued behind it to expire before a worker picks it up.
  ASSERT_TRUE(util::failpoint_arm("service.worker.job", "sleep:30"));

  net::LineServer server(svc, net::LineServer::Options{});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client = Client::connect_tcp(server.port());
  client.send_line(compile_request("head", "demo"));
  client.send_line(
      "{\"model\": \"demo\", \"tag\": \"doomed\", \"source\": \"" +
      std::string(kKernel) + "\", \"options\": {\"deadline_ms\": 1}}");

  std::optional<Json> head = Json::parse(client.read_line());
  ASSERT_TRUE(head);
  EXPECT_TRUE((*head)["ok"].as_bool(false));

  std::optional<Json> doomed = Json::parse(client.read_line());
  util::failpoint_disarm_all();
  ASSERT_TRUE(doomed);
  EXPECT_EQ((*doomed)["tag"].as_string(), "doomed");
  EXPECT_FALSE((*doomed)["ok"].as_bool(true));
  EXPECT_TRUE((*doomed)["deadline_exceeded"].as_bool());
  EXPECT_GE((*doomed)["retry_after_ms"].as_int(0), 1);
  EXPECT_NE((*doomed)["error"].as_string().find("deadline_exceeded"),
            std::string::npos);
  server.stop();
}

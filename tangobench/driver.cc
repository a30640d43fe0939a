// tango_bench: the closed-loop client driver of the repository benchmark.
//
// One run starts a fresh durable tango_logd (one two-replica chain:
// --nodes=2 --repl=2, segment store under a fresh data dir, default fsync
// batch), connects client threads to it over one shared TcpTransport, runs
// one workload for a fixed time, checks the results, stops the daemon and
// writes everything it measured as one JSON report.  run.py builds this
// binary, turns the report into the benchmark's metrics and prints them.
//
// Usage:
//   tango_bench --workload=map_txn|journal_append|map_read|bk_append --seed=N
//               --seconds=S --trace=0|1 --logd=PATH --work-dir=DIR --out=FILE
//
// Workloads (see NOTES.md for why each was chosen):
//   map_txn        4 clients, one TangoMap view each; every operation is a
//                  transaction of 3 Get + 3 Put (64 B values) on keys drawn
//                  uniformly from 100K keys.
//   journal_append 4 clients, each the single writer of its own journal (one
//                  key of a shared Journal object), appending 1 KiB entries.
//   map_read       40K preloaded keys; 3 rounds of 3 fresh readers cold-syncing
//                  the map, then those 3 readers issue linearizable Gets while
//                  a writer Puts versioned values.
//   bk_append      journal_append's load on TangoBk ledgers created in set-up.
//                  Not in BENCHMARK.json: its cold-reader check fails on the
//                  TangoBk apply-order race (NOTES.md).
//
// With --trace=1 the measured phase is split: an untraced half (counters)
// and a traced half with every operation under a root TraceScope and the
// daemon started with --trace-sample-every=1; both processes' spans land in
// the report so run.py can build the per-layer self-time table.
//
// Every measured phase carries deltas of the client metrics registry and
// snapshots of the daemon's registry (kStatsDump), taken just before and
// after the phase.  Exit code 0 means the report was written; checks that
// failed are in the report, not in the exit code.  A daemon that dies or
// never becomes ready is a hard failure (exit 1), with its stderr kept in the
// work dir.

#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/corfu/log_client.h"
#include "src/net/tcp_transport.h"
#include "src/objects/tango_bookkeeper.h"
#include "src/objects/tango_map.h"
#include "src/obs/metrics.h"
#include "src/obs/stats_service.h"
#include "src/obs/trace.h"
#include "src/runtime/runtime.h"
#include "src/util/serialize.h"
#include "tools/node_layout.h"

namespace {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Fixed workload shape.  Changing any of these changes the benchmark.

constexpr int kStorageNodes = 2;  // one chain of two replicas
constexpr int kReplication = 2;
constexpr int kClients = 4;
constexpr tango::ObjectId kMapOid = 4242;
constexpr tango::ObjectId kBkOid = 4343;
constexpr tango::ObjectId kJournalOid = 4444;
constexpr uint32_t kTxnKeys = 100'000;
constexpr size_t kValueBytes = 64;
constexpr size_t kEntryBytes = 1024;
constexpr uint32_t kReadKeys = 40'000;
constexpr int kReaders = 3;
constexpr int kReplayRounds = 3;
constexpr double kReadyTimeoutS = 20.0;
// Operations per client thread in a traced phase: the daemon keeps 8192
// spans per handler thread (4 threads), so a longer traced phase would
// overwrite the spans of its earlier operations.
constexpr uint64_t kTracedOpsPerThread = 800;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
uint64_t StreamSeed(uint64_t seed, uint64_t a, uint64_t b = 0) {
  return Mix(Mix(Mix(seed) ^ a) ^ (b * 0x100000001b3ULL));
}

uint64_t Fnv1a(std::string_view s, uint64_t h = 0xcbf29ce484222325ULL) {
  for (unsigned char c : s) {
    h = (h ^ c) * 0x100000001b3ULL;
  }
  return h;
}

std::string Key(uint32_t k) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%06u", k);
  return buf;
}

// A value of exactly kValueBytes: "<tag>|s<seq>|" padded with '.'.
std::string Value(const std::string& tag, uint64_t seq) {
  std::string v = tag + "|s" + std::to_string(seq) + "|";
  v.resize(kValueBytes, '.');
  return v;
}

// Parses the sequence number out of a Value(); false if malformed.
bool ValueSeq(const std::string& v, uint64_t* seq) {
  size_t p = v.find("|s");
  if (p == std::string::npos) return false;
  size_t e = v.find('|', p + 2);
  if (e == std::string::npos || e == p + 2) return false;
  *seq = std::stoull(v.substr(p + 2, e - p - 2));
  return true;
}

// The seed-derived content of entry `i` of ledger (or journal) `ledger`.
std::string LedgerEntry(uint64_t seed, int ledger, uint64_t i) {
  std::string data(kEntryBytes, '\0');
  int n = std::snprintf(data.data(), data.size(), "L%d#%" PRIu64 "|", ledger, i);
  uint64_t x = StreamSeed(seed, 0xb0b0 + ledger, i) | 1;
  for (size_t j = static_cast<size_t>(n); j < data.size(); ++j) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    data[j] = static_cast<char>('a' + (x % 26));
  }
  return data;
}

// ---------------------------------------------------------------------------
// Minimal JSON emitter.

std::string JsonStr(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// An object built field by field; values are already-rendered JSON.
class JsonObj {
 public:
  JsonObj& Raw(const std::string& k, const std::string& json) {
    fields_.emplace_back(k, json);
    return *this;
  }
  JsonObj& Str(const std::string& k, std::string_view v) { return Raw(k, JsonStr(v)); }
  JsonObj& Num(const std::string& k, double v) { return Raw(k, JsonNum(v)); }
  JsonObj& Int(const std::string& k, uint64_t v) { return Raw(k, std::to_string(v)); }
  JsonObj& Bool(const std::string& k, bool v) { return Raw(k, v ? "true" : "false"); }
  std::string Render() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ",";
      out += JsonStr(fields_[i].first) + ":" + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string JsonArr(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += items[i];
  }
  return out + "]";
}

std::vector<std::string> Strings(const std::vector<uint64_t>& v) {
  std::vector<std::string> out;
  for (uint64_t x : v) out.push_back(std::to_string(x));
  return out;
}

// ---------------------------------------------------------------------------
// Latency samples (microseconds) and their summary.

struct Latencies {
  std::vector<double> us;
  void Merge(const Latencies& o) { us.insert(us.end(), o.us.begin(), o.us.end()); }
  std::string Summary() {
    std::sort(us.begin(), us.end());
    auto rank = [this](double q) {
      size_t r = static_cast<size_t>(std::ceil(q * static_cast<double>(us.size())));
      return us[std::max<size_t>(r, 1) - 1];
    };
    JsonObj o;
    o.Int("n", us.size());
    if (!us.empty()) {
      o.Num("p50", rank(0.50)).Num("p99", rank(0.99)).Num("max", us.back());
    }
    return o.Render();
  }
};

// ---------------------------------------------------------------------------
// The daemon under test.

class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Forks and execs tango_logd on ports [base, base + 3 + nodes], with its
  // stdout/stderr in files under `dir` and its segment store in dir/data.
  bool Start(const std::string& logd, const std::string& dir, uint16_t base,
             bool trace) {
    dir_ = dir;
    base_ = base;
    out_path_ = dir + "/daemon.out";
    err_path_ = dir + "/daemon.err";
    std::vector<std::string> args = {
        logd,
        "--base-port=" + std::to_string(base),
        "--nodes=" + std::to_string(kStorageNodes),
        "--repl=" + std::to_string(kReplication),
        "--data-dir=" + dir + "/data",
    };
    if (trace) {
      args.push_back("--trace-sample-every=1");
    }
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0) {
      return false;
    }
    if (pid_ == 0) {
      // The daemon must not outlive the driver.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(127);
      int out = open(out_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      int err = open(err_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (out < 0 || err < 0) _exit(127);
      dup2(out, STDOUT_FILENO);
      dup2(err, STDERR_FILENO);
      execv(argv[0], argv.data());
      _exit(127);
    }
    return true;
  }

  // Polls the daemon's stdout for its ready line.
  bool WaitReady(double timeout_s) {
    Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeout_s));
    while (Clock::now() < deadline) {
      std::ifstream in(out_path_);
      std::string line;
      while (std::getline(in, line)) {
        if (line == "tango_logd: ready") return true;
      }
      if (!Alive()) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }

  bool Alive() {
    if (pid_ <= 0) return false;
    int status = 0;
    pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      exit_status_ = status;
      pid_ = -1;
      return false;
    }
    return true;
  }

  // SIGTERM, then SIGKILL after a grace period; true if it exited cleanly.
  bool Stop() {
    if (pid_ <= 0) return exit_status_ == 0;
    kill(pid_, SIGTERM);
    for (int i = 0; i < 1000; ++i) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        exit_status_ = status;
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    kill(pid_, SIGKILL);
    waitpid(pid_, &exit_status_, 0);
    pid_ = -1;
    return false;
  }

  const std::string& err_path() const { return err_path_; }
  uint16_t base() const { return base_; }
  int exit_status() const { return exit_status_; }

 private:
  std::string dir_;
  std::string out_path_;
  std::string err_path_;
  uint16_t base_ = 0;
  pid_t pid_ = -1;
  int exit_status_ = 0;
};

// True if every port of a daemon based at `base` is free on loopback.
bool PortsFree(uint16_t base) {
  for (int i = 0; i < 4 + kStorageNodes; ++i) {
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    int one = 1;
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(base + i));
    bool ok = bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    close(fd);
    if (!ok) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Transport decorator: counts the bytes the clients put on the wire.

class CountingTransport : public tango::Transport {
 public:
  explicit CountingTransport(tango::Transport* inner) : inner_(inner) {}

  tango::Status Call(tango::NodeId dest, uint16_t method,
                     std::span<const uint8_t> request,
                     std::vector<uint8_t>* response) override {
    tango::Status st = inner_->Call(dest, method, request, response);
    bytes_.fetch_add(request.size() + (st.ok() && response != nullptr ? response->size() : 0),
                     std::memory_order_relaxed);
    return st;
  }
  void RegisterNode(tango::NodeId node, tango::RpcHandler handler) override {
    inner_->RegisterNode(node, std::move(handler));
  }
  void UnregisterNode(tango::NodeId node) override {
    inner_->UnregisterNode(node);
  }

  uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

 private:
  tango::Transport* inner_;
  std::atomic<uint64_t> bytes_{0};
};

// One running daemon plus the shared client transport routed to it.
struct Deployment {
  Daemon daemon;
  std::unique_ptr<tango::TcpTransport> tcp;
  std::unique_ptr<CountingTransport> transport;
  std::string dir;

  tangotools::NodeLayout layout() const {
    return {kStorageNodes, daemon.base()};
  }
  // The daemon's metrics registry as JSON (kStatsDump over the uncounted
  // transport); "null" if it cannot be fetched.
  std::string DaemonMetrics() {
    auto r = tango::obs::FetchStats(tcp.get(), tangotools::NodeLayout::kStatsNode,
                                    tango::obs::StatsKind::kMetricsJson);
    return r.ok() ? *r : "null";
  }
  std::string DaemonTraces() {
    auto r = tango::obs::FetchStats(tcp.get(), tangotools::NodeLayout::kStatsNode,
                                    tango::obs::StatsKind::kChromeTrace);
    return r.ok() ? *r : "[]";
  }
};

// journal_append's object: one append-only journal per writer.  An append
// is a keyed update (key = writer index), the write path of TangoBk's
// AddEntry, but a journal needs no create record, so no apply depends on an
// update of another key.
class Journal : public tango::TangoObject {
 public:
  Journal(tango::TangoRuntime* runtime, tango::ObjectId oid) : runtime_(runtime), oid_(oid) {
    tango::Status st = runtime_->RegisterObject(oid_, this, tango::ObjectConfig{});
    TANGO_CHECK(st.ok()) << "register object failed: " << st.ToString();
  }
  ~Journal() override { (void)runtime_->UnregisterObject(oid_); }
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  tango::Status Append(uint32_t writer, const std::string& data) {
    tango::ByteWriter w(8 + data.size());
    w.PutU32(writer);
    w.PutString(data);
    return runtime_->UpdateHelper(oid_, w.bytes(), uint64_t{writer});
  }

  // Plays the object's stream to the tail; then entries() is current.
  tango::Status Sync() { return runtime_->QueryHelper(oid_); }
  // Writer index -> its entries.
  std::map<uint64_t, std::vector<std::string>> entries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return journals_;
  }

  void Apply(std::span<const uint8_t> update, corfu::LogOffset) override {
    tango::ByteReader r(update);
    uint32_t writer = r.GetU32();
    std::string data = r.GetString();
    if (!r.ok()) return;
    std::lock_guard<std::mutex> lock(mu_);
    journals_[writer].push_back(std::move(data));
  }
  void Clear() override {
    std::lock_guard<std::mutex> lock(mu_);
    journals_.clear();
  }

 private:
  tango::TangoRuntime* runtime_;
  tango::ObjectId oid_;
  mutable std::mutex mu_;
  std::map<uint64_t, std::vector<std::string>> journals_;
};

// One client: its own CorfuClient and TangoRuntime on the shared transport,
// plus the object view the workload uses.  Declaration order makes the view
// go first and the CorfuClient last.
struct Client {
  std::unique_ptr<corfu::CorfuClient> log;
  std::unique_ptr<tango::TangoRuntime> runtime;
  std::unique_ptr<tango::TangoMap> map;
  std::unique_ptr<tango::TangoBk> bk;
  std::unique_ptr<Journal> journal;
  tango::TangoBk::LedgerHandle ledger;

  enum View { kMap, kBk, kJournal };
  Client(Deployment& d, View view) {
    log = std::make_unique<corfu::CorfuClient>(d.transport.get(),
                                               d.layout().projection_store_node());
    runtime = std::make_unique<tango::TangoRuntime>(log.get());
    switch (view) {
      case kMap: map = std::make_unique<tango::TangoMap>(runtime.get(), kMapOid); break;
      case kBk: bk = std::make_unique<tango::TangoBk>(runtime.get(), kBkOid); break;
      case kJournal: journal = std::make_unique<Journal>(runtime.get(), kJournalOid); break;
    }
  }
};

// ---------------------------------------------------------------------------
// Counter snapshots.

struct RegistrySnap {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, std::pair<uint64_t, uint64_t>> hists;  // count, sum

  static RegistrySnap Take() {
    RegistrySnap s;
    auto snap = tango::obs::MetricsRegistry::Default().Snap();
    s.counters = snap.counters;
    for (const auto& [name, h] : snap.histograms) {
      s.hists[name] = {h.count(), h.sum()};
    }
    return s;
  }
  // {"counters":{name:delta},"hists":{name:{"count":..,"sum":..}}}, nonzero
  // deltas only.
  static std::string Delta(const RegistrySnap& a, const RegistrySnap& b) {
    JsonObj counters;
    for (const auto& [name, v] : b.counters) {
      auto it = a.counters.find(name);
      uint64_t d = v - (it == a.counters.end() ? 0 : it->second);
      if (d != 0) counters.Int(name, d);
    }
    JsonObj hists;
    for (const auto& [name, v] : b.hists) {
      auto it = a.hists.find(name);
      std::pair<uint64_t, uint64_t> base =
          it == a.hists.end() ? std::pair<uint64_t, uint64_t>{0, 0} : it->second;
      if (v.first == base.first) continue;
      hists.Raw(name, JsonObj()
                          .Int("count", v.first - base.first)
                          .Int("sum", v.second - base.second)
                          .Render());
    }
    return JsonObj().Raw("counters", counters.Render()).Raw("hists", hists.Render()).Render();
  }
};

tango::TangoRuntime::Stats SumStats(const std::vector<Client*>& clients) {
  tango::TangoRuntime::Stats total;
  for (Client* c : clients) {
    tango::TangoRuntime::Stats s = c->runtime->stats();
    total.commits += s.commits;
    total.aborts += s.aborts;
    total.updates_applied += s.updates_applied;
    total.entries_played += s.entries_played;
    total.decisions_appended += s.decisions_appended;
    total.decision_stalls += s.decision_stalls;
  }
  return total;
}

std::string StatsDelta(const tango::TangoRuntime::Stats& a,
                       const tango::TangoRuntime::Stats& b) {
  return JsonObj()
      .Int("commits", b.commits - a.commits)
      .Int("aborts", b.aborts - a.aborts)
      .Int("updates_applied", b.updates_applied - a.updates_applied)
      .Int("entries_played", b.entries_played - a.entries_played)
      .Int("decisions_appended", b.decisions_appended - a.decisions_appended)
      .Int("decision_stalls", b.decision_stalls - a.decision_stalls)
      .Render();
}

// What one measured phase did.  Threads fill `ops`..`lat` through the
// per-thread Tally and Merge it at the end.
void AddWindows(std::vector<uint64_t>* into, const std::vector<uint64_t>& from) {
  if (into->size() < from.size()) into->resize(from.size(), 0);
  for (size_t i = 0; i < from.size(); ++i) (*into)[i] += from[i];
}

struct Tally {
  uint64_t ops = 0;       // successful operations
  uint64_t attempted = 0;
  uint64_t failed = 0;    // errors + failed checks
  uint64_t aborts = 0;
  uint64_t write_ops = 0;
  uint64_t user_bytes = 0;  // acknowledged payload bytes
  Latencies lat;
  Latencies commit_lat;  // EndTx alone (map_txn)
  std::string first_error;
  // Successful operations and writes per one-second window of the phase, so
  // throughput can be reported as a median over windows.
  Clock::time_point start;
  std::vector<uint64_t> ops_win;
  std::vector<uint64_t> write_win;

  void Op(Clock::time_point done) {
    Tick(&ops_win, done);
    ++ops;
  }
  void Write(Clock::time_point done) {
    Tick(&write_win, done);
    ++write_ops;
  }
  void Tick(std::vector<uint64_t>* win, Clock::time_point done) {
    size_t w = static_cast<size_t>(std::max(0.0, Seconds(done - start)));
    if (win->size() <= w) win->resize(w + 1, 0);
    ++(*win)[w];
  }

  void Fail(const std::string& what) {
    ++failed;
    if (first_error.empty()) first_error = what;
  }
  void Merge(const Tally& t) {
    ops += t.ops;
    attempted += t.attempted;
    failed += t.failed;
    aborts += t.aborts;
    write_ops += t.write_ops;
    user_bytes += t.user_bytes;
    lat.Merge(t.lat);
    commit_lat.Merge(t.commit_lat);
    AddWindows(&ops_win, t.ops_win);
    AddWindows(&write_win, t.write_win);
    if (first_error.empty()) first_error = t.first_error;
  }
};

// Runs `body(i, deadline, tally)` on `n` threads released together, and
// returns the merged tally and the wall time from release to last join.
struct PhaseResult {
  Tally tally;
  double seconds = 0;
};
PhaseResult RunThreads(int n, double seconds,
                       const std::function<void(int, Clock::time_point, Tally&)>& body) {
  std::vector<Tally> tallies(n);
  std::vector<std::thread> threads;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point start;
  Clock::time_point deadline;
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      tallies[i].start = start;
      body(i, deadline, tallies[i]);
    });
  }
  while (ready.load() < n) std::this_thread::yield();
  start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  PhaseResult r;
  r.seconds = Seconds(Clock::now() - start);
  for (const Tally& t : tallies) r.tally.Merge(t);
  return r;
}

// ---------------------------------------------------------------------------
// View contents, read through the objects' checkpoint serialization after a
// sync, hashed independently of iteration order.

struct MapDigest {
  uint64_t size = 0;
  uint64_t hash = 0;
  bool operator==(const MapDigest& o) const { return size == o.size && hash == o.hash; }
};

MapDigest DigestMap(const tango::TangoMap& map) {
  std::vector<uint8_t> state = map.Checkpoint();
  tango::ByteReader r(state);
  MapDigest d;
  uint32_t count = r.GetU32();
  for (uint32_t i = 0; i < count && r.ok(); ++i) {
    std::string key = r.GetString();
    std::string value = r.GetString();
    (void)r.GetU64();
    d.hash += Mix(Fnv1a(value, Fnv1a(key)));
  }
  d.size = r.ok() ? count : ~0ULL;
  return d;
}

// Ledger id -> entries.
std::map<uint64_t, std::vector<std::string>> ReadLedgers(const tango::TangoBk& bk) {
  std::vector<uint8_t> state = bk.Checkpoint();
  tango::ByteReader r(state);
  std::map<uint64_t, std::vector<std::string>> out;
  (void)r.GetU64();
  uint32_t count = r.GetU32();
  for (uint32_t i = 0; i < count && r.ok(); ++i) {
    uint64_t id = r.GetU64();
    (void)r.GetU64();
    (void)r.GetU8();
    uint32_t n = r.GetU32();
    std::vector<std::string>& entries = out[id];
    for (uint32_t j = 0; j < n && r.ok(); ++j) entries.push_back(r.GetString());
  }
  return out;
}

// ---------------------------------------------------------------------------
// The run.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string logd;
  std::string work_dir;
  std::string out;
};

// A correctness check that failed; `failures` is how many acknowledged
// operations it found wrong (counted into the run's failed operations).
struct Check {
  std::string name;
  uint64_t failures = 0;
  std::string detail;
  std::string Render() const {
    return JsonObj().Str("name", name).Int("failures", failures).Str("detail", detail).Render();
  }
};

class Bench {
 public:
  explicit Bench(Args args) : args_(std::move(args)) {}

  int Run();

 private:
  // Starts a daemon on free ports in a fresh dir and connects a transport.
  bool Deploy(Deployment* d);
  // Creates the workload's clients and does its set-up (ledgers, preload).
  bool SetUpClients(Deployment& d);
  void TearDown(Deployment* d);

  // A measured phase: the workload body on threads, bracketed by registry,
  // runtime-stats and daemon snapshots.  Returns the phase's JSON.
  std::string Phase(const std::string& name, int threads, double seconds,
                    const std::vector<Client*>& runtimes,
                    const std::function<void(int, Clock::time_point, Tally&)>& body);

  void TxnBody(int i, Clock::time_point deadline, Tally& t);
  void BkBody(int i, Clock::time_point deadline, Tally& t);
  void JournalBody(int i, Clock::time_point deadline, Tally& t);
  void ReadBody(int i, Clock::time_point deadline, Tally& t);
  void WriteBody(Clock::time_point deadline, Tally& t);

  // map_read: one round of kReaders fresh readers cold-syncing the map.
  std::string ReplayRound(std::vector<std::unique_ptr<Client>>* readers);
  // map_txn / journal_append / bk_append: a fresh view replays the whole log
  // and is checked against what the live clients had acknowledged.
  std::string CheckReplay();

  void AddCheck(const std::string& name, uint64_t failures, const std::string& detail) {
    checks_.push_back({name, failures, detail});
  }
  bool DaemonAlive() { return dep_ != nullptr && dep_->daemon.Alive(); }

  Args args_;
  std::unique_ptr<Deployment> dep_;
  std::vector<std::unique_ptr<Client>> clients_;   // workload clients
  std::vector<std::unique_ptr<Client>> readers_;   // map_read readers
  std::unique_ptr<Client> writer_;                 // map_read writer
  std::vector<Check> checks_;
  int deploy_serial_ = 0;

  // map_txn: per-client committed-transaction counters (value tags).
  // journal_append / bk_append: acknowledged entries per journal or ledger.
  std::vector<uint64_t> acked_entries_ = std::vector<uint64_t>(kClients, 0);
  // map_read: the writer's last acknowledged sequence per key.
  std::unique_ptr<std::atomic<uint64_t>[]> acked_seq_;
  uint64_t writer_seq_ = 0;
  bool traced_ = false;
};

bool Bench::Deploy(Deployment* d) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    uint64_t h = StreamSeed(args_.seed, static_cast<uint64_t>(getpid()),
                            static_cast<uint64_t>(deploy_serial_ * 8 + attempt));
    // 26000-31599: clear of scripts/demo_tcp.sh (21000-22999),
    // scripts/crash_tcp.sh (23000-24999), the CI daemon (24500), the tools'
    // default 19700 and the kernel's ephemeral range.
    uint16_t base = static_cast<uint16_t>(26000 + 8 * (h % 700));
    if (!PortsFree(base)) continue;
    d->dir = args_.work_dir + "/deploy-" + std::to_string(deploy_serial_) + "-" +
             std::to_string(attempt);
    fs::create_directories(d->dir);
    if (!d->daemon.Start(args_.logd, d->dir, base, args_.trace)) {
      std::fprintf(stderr, "tango_bench: fork failed\n");
      return false;
    }
    if (d->daemon.WaitReady(kReadyTimeoutS)) {
      ++deploy_serial_;
      d->tcp = std::make_unique<tango::TcpTransport>();
      d->layout().AddRoutes(*d->tcp, "127.0.0.1");
      d->transport = std::make_unique<CountingTransport>(d->tcp.get());
      return true;
    }
    bool died = !d->daemon.Alive();
    d->daemon.Stop();
    fs::remove_all(d->dir + "/data");
    if (!died) {
      std::fprintf(stderr, "tango_bench: daemon not ready after %.0f s; stderr in %s\n",
                   kReadyTimeoutS, d->daemon.err_path().c_str());
      return false;
    }
    // Most likely lost a port race; keep its stderr and try other ports.
    std::fprintf(stderr, "tango_bench: daemon on base port %u exited before ready; "
                 "stderr kept in %s\n", base, d->daemon.err_path().c_str());
  }
  return false;
}

void Bench::TearDown(Deployment* d) {
  readers_.clear();
  writer_.reset();
  clients_.clear();
  bool clean = d->daemon.Stop();
  d->transport.reset();
  d->tcp.reset();
  if (clean) {
    fs::remove_all(d->dir);
  } else {
    fs::remove_all(d->dir + "/data");
    AddCheck("daemon.clean_exit", 1,
             "daemon exit status " + std::to_string(d->daemon.exit_status()) +
                 "; stderr kept in " + d->daemon.err_path());
  }
}

bool Bench::SetUpClients(Deployment& d) {
  const std::string& w = args_.workload;
  if (w == "map_txn") {
    for (int i = 0; i < kClients; ++i) {
      clients_.push_back(std::make_unique<Client>(d, Client::kMap));
    }
    return true;
  }
  if (w == "journal_append") {
    for (int i = 0; i < kClients; ++i) {
      clients_.push_back(std::make_unique<Client>(d, Client::kJournal));
    }
    return true;
  }
  if (w == "bk_append") {
    for (int i = 0; i < kClients; ++i) {
      clients_.push_back(std::make_unique<Client>(d, Client::kBk));
      auto handle = clients_.back()->bk->CreateLedger();
      if (!handle.ok()) {
        std::fprintf(stderr, "tango_bench: CreateLedger: %s\n",
                     handle.status().ToString().c_str());
        return false;
      }
      clients_.back()->ledger = *handle;
    }
    return true;
  }
  // map_read: 4 loaders preload kReadKeys keys at sequence 0, then leave;
  // the writer stays for the serve phase.
  for (int i = 0; i < kClients; ++i) {
    clients_.push_back(std::make_unique<Client>(d, Client::kMap));
  }
  std::atomic<bool> ok{true};
  std::vector<std::thread> loaders;
  for (int i = 0; i < kClients; ++i) {
    loaders.emplace_back([&, i] {
      for (uint32_t k = i; k < kReadKeys && ok.load(); k += kClients) {
        tango::Status st = clients_[i]->map->Put(Key(k), Value(Key(k), 0));
        if (!st.ok()) {
          std::fprintf(stderr, "tango_bench: preload Put: %s\n", st.ToString().c_str());
          ok.store(false);
        }
      }
    });
  }
  for (std::thread& t : loaders) t.join();
  clients_.clear();
  writer_ = std::make_unique<Client>(d, Client::kMap);
  acked_seq_ = std::make_unique<std::atomic<uint64_t>[]>(kReadKeys);
  for (uint32_t k = 0; k < kReadKeys; ++k) acked_seq_[k].store(0);
  writer_seq_ = 0;
  return ok.load();
}

std::string Bench::Phase(const std::string& name, int threads, double seconds,
                         const std::vector<Client*>& runtimes,
                         const std::function<void(int, Clock::time_point, Tally&)>& body) {
  std::string daemon_before = dep_->DaemonMetrics();
  RegistrySnap reg_before = RegistrySnap::Take();
  tango::TangoRuntime::Stats rt_before = SumStats(runtimes);
  uint64_t bytes_before = dep_->transport->bytes();
  PhaseResult r = RunThreads(threads, seconds, body);
  uint64_t bytes = dep_->transport->bytes() - bytes_before;
  tango::TangoRuntime::Stats rt_after = SumStats(runtimes);
  RegistrySnap reg_after = RegistrySnap::Take();
  std::string daemon_after = dep_->DaemonMetrics();
  return JsonObj()
      .Str("name", name)
      .Bool("traced", traced_)
      .Num("seconds", r.seconds)
      .Int("ops", r.tally.ops)
      .Int("attempted", r.tally.attempted)
      .Int("failed", r.tally.failed)
      .Int("aborts", r.tally.aborts)
      .Int("write_ops", r.tally.write_ops)
      .Int("user_bytes", r.tally.user_bytes)
      .Int("wire_bytes", bytes)
      .Str("first_error", r.tally.first_error)
      .Raw("ops_per_window", JsonArr(Strings(r.tally.ops_win)))
      .Raw("writes_per_window", JsonArr(Strings(r.tally.write_win)))
      .Raw("latency_us", r.tally.lat.Summary())
      .Raw("commit_us", r.tally.commit_lat.Summary())
      .Raw("runtime", StatsDelta(rt_before, rt_after))
      .Raw("client", RegistrySnap::Delta(reg_before, reg_after))
      .Raw("daemon_before", daemon_before)
      .Raw("daemon_after", daemon_after)
      .Render();
}

// Runs `fn` under a root span named after the operation when tracing.
template <typename Fn>
auto Traced(bool on, Fn&& fn) {
  if (!on) return fn();
  tango::obs::TraceScope root("bench.op");
  return fn();
}

void Bench::TxnBody(int i, Clock::time_point deadline, Tally& t) {
  Client& c = *clients_[i];
  std::mt19937_64 rng(StreamSeed(args_.seed, 0x7a11, static_cast<uint64_t>(i) + (traced_ ? 100 : 0)));
  std::uniform_int_distribution<uint32_t> pick(0, kTxnKeys - 1);
  std::string tag = "c" + std::to_string(i);
  while (Clock::now() < deadline && !(traced_ && t.attempted >= kTracedOpsPerThread)) {
    ++t.attempted;
    uint32_t keys[6];
    for (uint32_t& k : keys) k = pick(rng);
    Clock::time_point t0 = Clock::now();
    Clock::time_point te = t0;
    tango::Status st = Traced(traced_, [&]() -> tango::Status {
      TANGO_RETURN_IF_ERROR(c.runtime->BeginTx());
      for (int j = 0; j < 3; ++j) {
        auto v = c.map->Get(Key(keys[j]));
        if (!v.ok() && v.status() != tango::StatusCode::kNotFound) {
          c.runtime->AbortTx();
          return v.status();
        }
      }
      for (int j = 3; j < 6; ++j) {
        tango::Status p = c.map->Put(Key(keys[j]), Value(tag, acked_entries_[i]));
        if (!p.ok()) {
          c.runtime->AbortTx();
          return p;
        }
      }
      te = Clock::now();
      tango::obs::TraceScope endtx("bench.endtx");
      return c.runtime->EndTx();
    });
    Clock::time_point t1 = Clock::now();
    if (st.ok()) {
      t.Op(t1);
      t.Write(t1);
      ++acked_entries_[i];
      t.user_bytes += 3 * kValueBytes;
      t.lat.us.push_back(Micros(t1 - t0));
      t.commit_lat.us.push_back(Micros(t1 - te));
    } else if (st == tango::StatusCode::kAborted) {
      ++t.aborts;
    } else {
      t.Fail("txn: " + st.ToString());
    }
  }
}

void Bench::BkBody(int i, Clock::time_point deadline, Tally& t) {
  Client& c = *clients_[i];
  while (Clock::now() < deadline && !(traced_ && t.attempted >= kTracedOpsPerThread)) {
    ++t.attempted;
    uint64_t n = acked_entries_[i];
    std::string data = LedgerEntry(args_.seed, i, n);
    Clock::time_point t0 = Clock::now();
    auto id = Traced(traced_, [&] { return c.bk->AddEntry(c.ledger, data); });
    Clock::time_point t1 = Clock::now();
    if (!id.ok()) {
      t.Fail("AddEntry: " + id.status().ToString());
      continue;
    }
    if (*id != n) {
      t.Fail("AddEntry returned id " + std::to_string(*id) + ", expected " + std::to_string(n));
      continue;
    }
    ++acked_entries_[i];
    t.Op(t1);
    t.Write(t1);
    t.user_bytes += kEntryBytes;
    t.lat.us.push_back(Micros(t1 - t0));
  }
}

void Bench::JournalBody(int i, Clock::time_point deadline, Tally& t) {
  Client& c = *clients_[i];
  while (Clock::now() < deadline && !(traced_ && t.attempted >= kTracedOpsPerThread)) {
    ++t.attempted;
    std::string data = LedgerEntry(args_.seed, i, acked_entries_[i]);
    Clock::time_point t0 = Clock::now();
    tango::Status st =
        Traced(traced_, [&] { return c.journal->Append(static_cast<uint32_t>(i), data); });
    Clock::time_point t1 = Clock::now();
    if (!st.ok()) {
      t.Fail("journal Append: " + st.ToString());
      continue;
    }
    ++acked_entries_[i];
    t.Op(t1);
    t.Write(t1);
    t.user_bytes += kEntryBytes;
    t.lat.us.push_back(Micros(t1 - t0));
  }
}

void Bench::ReadBody(int i, Clock::time_point deadline, Tally& t) {
  Client& c = *readers_[i];
  std::mt19937_64 rng(StreamSeed(args_.seed, 0x4ead, static_cast<uint64_t>(i) + (traced_ ? 100 : 0)));
  std::uniform_int_distribution<uint32_t> pick(0, kReadKeys - 1);
  while (Clock::now() < deadline && !(traced_ && t.attempted >= kTracedOpsPerThread)) {
    ++t.attempted;
    uint32_t k = pick(rng);
    uint64_t floor = acked_seq_[k].load(std::memory_order_acquire);
    Clock::time_point t0 = Clock::now();
    auto v = Traced(traced_, [&] { return c.map->Get(Key(k)); });
    Clock::time_point t1 = Clock::now();
    uint64_t seq = 0;
    if (!v.ok()) {
      t.Fail("Get " + Key(k) + ": " + v.status().ToString());
    } else if (v->rfind(Key(k) + "|", 0) != 0 || !ValueSeq(*v, &seq)) {
      t.Fail("Get " + Key(k) + " returned a malformed value");
    } else if (seq < floor) {
      t.Fail("stale read of " + Key(k) + ": sequence " + std::to_string(seq) +
             " < acknowledged " + std::to_string(floor));
    } else {
      t.Op(t1);
      t.lat.us.push_back(Micros(t1 - t0));
    }
  }
}

void Bench::WriteBody(Clock::time_point deadline, Tally& t) {
  std::mt19937_64 rng(StreamSeed(args_.seed, 0x3417, traced_ ? 1 : 0));
  std::uniform_int_distribution<uint32_t> pick(0, kReadKeys - 1);
  while (Clock::now() < deadline && !(traced_ && t.attempted >= kTracedOpsPerThread)) {
    ++t.attempted;
    uint32_t k = pick(rng);
    uint64_t seq = ++writer_seq_;
    tango::Status st = writer_->map->Put(Key(k), Value(Key(k), seq));
    if (!st.ok()) {
      t.Fail("writer Put: " + st.ToString());
      continue;
    }
    // Monotonic: a later Put of the same key always carries a larger seq.
    acked_seq_[k].store(seq, std::memory_order_release);
    t.Write(Clock::now());
    t.user_bytes += kValueBytes;
  }
}

std::string Bench::ReplayRound(std::vector<std::unique_ptr<Client>>* readers) {
  readers->clear();
  for (int i = 0; i < kReaders; ++i) {
    readers->push_back(std::make_unique<Client>(*dep_, Client::kMap));
  }
  std::vector<Client*> rts;
  for (auto& r : *readers) rts.push_back(r.get());
  std::vector<size_t> sizes(kReaders, 0);
  std::vector<std::string> errors(kReaders);
  std::string phase = Phase("replay", kReaders, 0, rts,
                            [&](int i, Clock::time_point, Tally& t) {
                              ++t.attempted;
                              auto size = (*readers)[i]->map->Size();
                              if (!size.ok()) {
                                t.Fail("replay Size: " + size.status().ToString());
                                return;
                              }
                              sizes[i] = *size;
                              t.Op(Clock::now());
                            });
  for (int i = 0; i < kReaders; ++i) {
    if (sizes[i] != kReadKeys) {
      AddCheck("map_read.replay_complete", 1,
               "reader " + std::to_string(i) + " replayed " + std::to_string(sizes[i]) +
                   " keys, expected " + std::to_string(kReadKeys));
    }
  }
  return phase;
}

std::string Bench::CheckReplay() {
  const std::string& w = args_.workload;
  bool is_map = w == "map_txn";
  Client fresh(*dep_, is_map ? Client::kMap : w == "bk_append" ? Client::kBk : Client::kJournal);
  std::string phase = Phase("replay", 1, 0, {&fresh}, [&](int, Clock::time_point, Tally& t) {
    ++t.attempted;
    // A whole-object read replays the object's stream to the tail.
    tango::Status st = is_map                     ? fresh.map->Size().status()
                       : fresh.journal != nullptr ? fresh.journal->Sync()
                                                  : fresh.runtime->QueryHelper(kBkOid);
    if (!st.ok()) {
      t.Fail("cold replay: " + st.ToString());
      return;
    }
    t.Op(Clock::now());
  });
  if (is_map) {
    // Every live view and the fresh one reach the same decisions.
    MapDigest want = DigestMap(*fresh.map);
    for (int i = 0; i < kClients; ++i) {
      MapDigest got = DigestMap(*clients_[i]->map);
      if (!(got == want)) {
        AddCheck("map_txn.views_agree", 1,
                 "view " + std::to_string(i) + " has " + std::to_string(got.size) +
                     " keys / hash " + std::to_string(got.hash) + ", fresh view " +
                     std::to_string(want.size) + " / " + std::to_string(want.hash));
      }
    }
    return phase;
  }
  // The cold reader holds every acknowledged entry, byte for byte.
  std::map<uint64_t, std::vector<std::string>> ledgers =
      fresh.journal != nullptr ? fresh.journal->entries() : ReadLedgers(*fresh.bk);
  for (int i = 0; i < kClients; ++i) {
    const std::vector<std::string>& entries =
        ledgers[fresh.journal != nullptr ? static_cast<uint64_t>(i) : clients_[i]->ledger.id];
    uint64_t held = entries.size();
    uint64_t acked = acked_entries_[i];
    // Entry ids are positions, so a lost entry shifts every later one:
    // count what is missing (or extra), or else what differs.
    uint64_t bad = held > acked ? held - acked : acked - held;
    for (uint64_t n = 0; bad == 0 && n < acked; ++n) {
      bad += entries[n] != LedgerEntry(args_.seed, i, n) ? 1 : 0;
    }
    if (bad != 0) {
      AddCheck(w + ".cold_reader", bad,
               std::string(fresh.journal != nullptr ? "journal" : "ledger") + " of client " +
                   std::to_string(i) + ": holds " + std::to_string(held) + " entries, " +
                   std::to_string(acked) + " acknowledged, " + std::to_string(bad) +
                   " missing or wrong");
    }
  }
  return phase;
}

int Bench::Run() {
  const std::string& w = args_.workload;
  // Set-up time is reported as the median of several set-ups.  Those of
  // map_txn, journal_append and bk_append take ~10 ms and are bimodal
  // (bk_append: ~6.5 or ~10.5 ms), hence 9; map_read's preload makes each of
  // its set-ups cost seconds.
  int setups = args_.trace ? 1 : w == "map_read" ? 3 : 9;
  std::vector<std::string> setup_s;
  for (int s = 0; s < setups; ++s) {
    Clock::time_point t0 = Clock::now();
    dep_ = std::make_unique<Deployment>();
    if (!Deploy(dep_.get())) return 1;
    if (!SetUpClients(*dep_)) {
      std::fprintf(stderr, "tango_bench: set-up failed (daemon %s); stderr in %s\n",
                   DaemonAlive() ? "alive" : "dead", dep_->daemon.err_path().c_str());
      return 1;
    }
    setup_s.push_back(JsonNum(Seconds(Clock::now() - t0)));
    if (s + 1 < setups) {
      TearDown(dep_.get());
      dep_.reset();
    }
  }

  std::vector<std::string> phases;
  std::string replays = "[]";
  std::vector<Client*> live;
  for (auto& c : clients_) live.push_back(c.get());
  // With --trace=1 the budget is split between an untraced and a traced
  // half; the daemon traces only requests that carry a trace context.
  std::vector<bool> modes = args_.trace ? std::vector<bool>{false, true}
                                        : std::vector<bool>{false};
  double budget = args_.seconds / static_cast<double>(modes.size());
  if (args_.trace) {
    tango::obs::Tracer::Default().set_capacity(1 << 16);
    tango::obs::Tracer::Default().SetSampling({1, 0, args_.seed});
  }
  for (bool traced : modes) {
    traced_ = traced;
    tango::obs::Tracer::Default().SetEnabled(traced);
    if (w == "map_txn") {
      phases.push_back(Phase("measure", kClients, budget, live,
                             [this](int i, Clock::time_point d, Tally& t) { TxnBody(i, d, t); }));
    } else if (w == "journal_append") {
      phases.push_back(Phase("measure", kClients, budget, live,
                             [this](int i, Clock::time_point d, Tally& t) { JournalBody(i, d, t); }));
    } else if (w == "bk_append") {
      phases.push_back(Phase("measure", kClients, budget, live,
                             [this](int i, Clock::time_point d, Tally& t) { BkBody(i, d, t); }));
    } else {
      Clock::time_point start = Clock::now();
      if (!traced) {
        std::vector<std::string> rounds;
        for (int r = 0; r < kReplayRounds; ++r) {
          rounds.push_back(ReplayRound(&readers_));
        }
        replays = JsonArr(rounds);
      }
      // The serve phase gets the rest of the budget, but at least half.
      double serve = std::max(budget - Seconds(Clock::now() - start), budget / 2);
      std::vector<Client*> rts;
      for (auto& r : readers_) rts.push_back(r.get());
      rts.push_back(writer_.get());
      phases.push_back(Phase("measure", kReaders + 1, serve, rts,
                             [this](int i, Clock::time_point d, Tally& t) {
                               if (i < kReaders) {
                                 ReadBody(i, d, t);
                               } else {
                                 WriteBody(d, t);
                               }
                             }));
    }
    if (!DaemonAlive()) break;
  }
  tango::obs::Tracer::Default().SetEnabled(false);

  std::string client_spans = "[]";
  std::string daemon_spans = "[]";
  uint64_t client_dropped = 0;
  if (args_.trace && DaemonAlive()) {
    client_spans = tango::obs::Tracer::Default().ExportChromeJson();
    client_dropped = tango::obs::Tracer::Default().dropped();
    daemon_spans = dep_->DaemonTraces();
  }

  if (DaemonAlive() && w != "map_read") {
    if (w == "map_txn") {
      // Bring every live view to the tail before comparing.
      for (auto& c : clients_) {
        auto size = c->map->Size();
        if (!size.ok()) {
          AddCheck("map_txn.views_agree", 1, "sync: " + size.status().ToString());
        }
      }
    }
    replays = JsonArr({CheckReplay()});
  }
  if (!DaemonAlive()) {
    std::fprintf(stderr, "tango_bench: the daemon died during the run; stderr kept in %s\n",
                 dep_->daemon.err_path().c_str());
    return 1;
  }
  TearDown(dep_.get());

  std::vector<std::string> checks;
  for (const Check& c : checks_) checks.push_back(c.Render());
  std::string report =
      JsonObj()
          .Str("workload", w)
          .Int("seed", args_.seed)
          .Num("seconds", args_.seconds)
          .Bool("trace", args_.trace)
          .Raw("config", JsonObj()
                             .Int("storage_nodes", kStorageNodes)
                             .Int("replication", kReplication)
                             .Str("fsync_batch", "daemon default (--fsync-batch not passed; 64)")
                             .Int("clients", w == "map_read" ? kReaders + 1 : kClients)
                             .Int("txn_keys", kTxnKeys)
                             .Int("value_bytes", kValueBytes)
                             .Int("entry_bytes", kEntryBytes)
                             .Int("read_keys", kReadKeys)
                             .Int("readers", kReaders)
                             .Int("replay_rounds", w == "map_read" ? kReplayRounds : 1)
                             .Render())
          .Raw("setup_s", JsonArr(setup_s))
          .Raw("phases", JsonArr(phases))
          .Raw("replays", replays)
          .Raw("checks", JsonArr(checks))
          .Int("client_trace_dropped", client_dropped)
          .Raw("client_spans", client_spans)
          .Raw("daemon_spans", daemon_spans)
          .Render();
  std::ofstream out(args_.out);
  out << report << "\n";
  out.close();
  return out ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  tangotools::ToolArgs flags(argc, argv);
  Args args;
  args.workload = flags.Get("workload", "");
  args.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  args.seconds = std::stod(flags.Get("seconds", "10"));
  args.trace = flags.GetInt("trace", 0) != 0;
  args.logd = flags.Get("logd", "");
  args.work_dir = flags.Get("work-dir", "");
  args.out = flags.Get("out", "");
  if ((args.workload != "map_txn" && args.workload != "journal_append" &&
       args.workload != "map_read" && args.workload != "bk_append") ||
      args.logd.empty() || args.work_dir.empty() || args.out.empty() ||
      args.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: tango_bench --workload=map_txn|journal_append|map_read|bk_append "
                 "--seed=N --seconds=S --trace=0|1 --logd=PATH --work-dir=DIR --out=FILE\n");
    return 2;
  }
  // Spans from the driver are recorded only in the traced half.
  tango::obs::Tracer::Default().SetEnabled(false);
  return Bench(std::move(args)).Run();
}

// Wall-clock paging benchmark.
//
// Runs one named workload closed-loop — a single application thread issues
// accesses through PagedVm and blocks on every fault — against memory
// servers that live in this process: over loopback TCP (TcpServer, one loop
// thread and one service worker per server) or in-proc (InProcTransport).
// Every write access stamps the page (page id, write sequence number, a
// seed-derived body) and every read access checks the stamp, so a wrong
// byte anywhere on the paging path counts as a failed operation.
//
// A run repeats identical rounds until --seconds have passed (at least
// kMinRounds). A round builds a fresh cluster (timed as set-up), runs the
// workload's access stream (timed), and tears the cluster down. Metrics are
// medians over rounds, or over the faults of all rounds pooled, so a host
// phase that slows one round moves the medians little.
//
// All probes wrap public interfaces between layers from the outside:
// PagingBackend (policy entry), MessageHandler (server entry, also the wire
// byte count), RepairCoordinator::Pump, MemoryServer stats and getrusage.
// Nothing reads the simulated clock (TimeNs) as a measurement.
//
//   pager_bench --workload fft-parity-tcp --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object; the exit code is 0
// only when every read-back matched and no access failed.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/health.h"
#include "src/core/mirroring.h"
#include "src/core/parity_logging.h"
#include "src/core/repair.h"
#include "src/server/memory_server.h"
#include "src/transport/inproc_transport.h"
#include "src/transport/tcp.h"
#include "src/vm/paged_vm.h"
#include "src/workloads/workload.h"

namespace rmp::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int64_t NanosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// --- Statistics ------------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// --- Seeded inputs ---------------------------------------------------------

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t state = a ^ (b * 0xd6e8feb86659fd93ULL);
  return SplitMix(&state);
}

struct Access {
  uint32_t vpage = 0;
  bool write = false;
};

// Records the page-granular reference stream of a paper workload generator
// by running it against a VM whose backend stores nothing.
class DiscardingBackend final : public PagingBackend {
 public:
  Result<TimeNs> PageOut(TimeNs now, uint64_t, std::span<const uint8_t>) override { return now; }
  Result<TimeNs> PageIn(TimeNs now, uint64_t, std::span<uint8_t> out) override {
    std::fill(out.begin(), out.end(), uint8_t{0});
    return now;
  }
  const BackendStats& stats() const override { return stats_; }
  std::string Name() const override { return "DISCARD"; }

 private:
  BackendStats stats_;
};

std::vector<Access> RecordStream(const Workload& workload) {
  DiscardingBackend sink;
  PagedVm vm({.virtual_pages = PagesForBytes(workload.info().data_bytes) + 64,
              .physical_frames = 16},
             &sink);
  std::vector<Access> stream;
  stream.reserve(static_cast<size_t>(workload.access_count()));
  vm.SetAccessObserver([&stream](uint64_t vpage, bool write) {
    stream.push_back({static_cast<uint32_t>(vpage), write});
  });
  TimeNs now = 0;
  const Status status = workload.Run(&vm, &now);
  if (!status.ok()) {
    std::fprintf(stderr, "recording %s: %s\n", workload.info().name.c_str(),
                 status.ToString().c_str());
    std::exit(2);
  }
  return stream;
}

// Page contents: a 24-byte stamp (page id, write sequence number, seed)
// followed by a body derived from all three. Sequence 0 means "never
// written": the VM zero-fills such pages, so the expected content is zeroes.
// Compressible pages (FillCompressiblePage, mixed 10..90 % zero runs) feed the
// server's compressed tier; the stamp keeps them distinct per write.
constexpr size_t kStampBytes = 3 * sizeof(uint64_t);

void FillPage(std::span<uint8_t> page, uint64_t seed, uint64_t vpage, uint64_t seq,
              bool compressible) {
  const uint64_t key = Mix(Mix(seed, vpage), seq);
  if (compressible) {
    FillCompressiblePage(page, key, 10, 90);
  } else {
    uint64_t state = key;
    for (size_t i = kStampBytes; i < page.size(); i += sizeof(uint64_t)) {
      const uint64_t v = SplitMix(&state);
      std::memcpy(page.data() + i, &v, sizeof(v));
    }
  }
  const uint64_t stamp[3] = {vpage, seq, seed};
  std::memcpy(page.data(), stamp, kStampBytes);
}

// --- Probes on the layer boundaries ---------------------------------------

// Per-op time samples and totals, filled only when timing is on.
struct OpTimes {
  std::vector<double> pagein_us;
  std::vector<double> pageout_us;
  int64_t busy_ns = 0;
};

// The policy entry point as the VM sees it. Counts every call (that is how
// an access is classified as a fault) and, when timing, records how long
// PageIn/PageOut took and how much of the current access was spent inside.
class ProbedBackend final : public PagingBackend {
 public:
  explicit ProbedBackend(PagingBackend* inner) : inner_(inner) {}

  Result<TimeNs> PageOut(TimeNs now, uint64_t page_id, std::span<const uint8_t> data) override {
    ++calls_;
    if (!timing_) {
      return inner_->PageOut(now, page_id, data);
    }
    const auto start = Clock::now();
    auto done = inner_->PageOut(now, page_id, data);
    Record(start, &times_.pageout_us);
    return done;
  }

  Result<TimeNs> PageIn(TimeNs now, uint64_t page_id, std::span<uint8_t> out) override {
    ++calls_;
    if (!timing_) {
      return inner_->PageIn(now, page_id, out);
    }
    const auto start = Clock::now();
    auto done = inner_->PageIn(now, page_id, out);
    Record(start, &times_.pagein_us);
    return done;
  }

  const BackendStats& stats() const override { return inner_->stats(); }
  std::string Name() const override { return inner_->Name(); }

  void set_timing(bool on) { timing_ = on; }
  int64_t calls() const { return calls_; }
  int64_t inside_ns() const { return times_.busy_ns; }
  const OpTimes& times() const { return times_; }

 private:
  void Record(Clock::time_point start, std::vector<double>* samples) {
    const int64_t ns = NanosBetween(start, Clock::now());
    times_.busy_ns += ns;
    samples->push_back(static_cast<double>(ns) / 1e3);
  }

  PagingBackend* inner_;
  bool timing_ = false;
  int64_t calls_ = 0;
  OpTimes times_;
};

// The server entry point. Always counts requests and request+reply frame
// bytes (exact, cheap); times Handle by op when timing. The self-test hook
// flips one byte of one PAGEIN reply payload — after the server produced it
// and before the transport computes the wire CRC, so only an end-to-end
// content check can catch it.
class ProbedHandler final : public MessageHandler {
 public:
  // `corrupt_next_pagein` is shared by every server of a cluster, so one
  // armed flip hits whichever server answers the next PAGEIN.
  ProbedHandler(MemoryServer* server, std::atomic<bool>* corrupt_next_pagein)
      : server_(server), corrupt_next_pagein_(corrupt_next_pagein) {}

  Message Handle(const Message& request) override {
    const bool timing = timing_.load(std::memory_order_relaxed);
    const auto start = timing ? Clock::now() : Clock::time_point();
    Message reply = server_->Handle(request);
    if (request.type == MessageType::kPageIn && reply.status_code() == ErrorCode::kOk &&
        !reply.payload.empty() && corrupt_next_pagein_->exchange(false)) {
      reply.payload[reply.payload.size() / 2] ^= 0x5a;
    }
    calls_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(2 * kWirePrefixSize + request.payload.size() + reply.payload.size(),
                     std::memory_order_relaxed);
    if (timing) {
      const int64_t ns = NanosBetween(start, Clock::now());
      std::lock_guard<std::mutex> lock(mutex_);
      times_.busy_ns += ns;
      if (request.type == MessageType::kPageIn) {
        times_.pagein_us.push_back(static_cast<double>(ns) / 1e3);
      } else if (request.type == MessageType::kPageOut) {
        times_.pageout_us.push_back(static_cast<double>(ns) / 1e3);
      }
    }
    return reply;
  }

  void set_timing(bool on) { timing_.store(on); }
  uint64_t calls() const { return calls_.load(); }
  uint64_t bytes() const { return bytes_.load(); }
  OpTimes TakeTimes() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(times_, OpTimes());
  }

 private:
  MemoryServer* server_;
  std::atomic<bool> timing_{false};
  std::atomic<bool>* corrupt_next_pagein_;
  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> bytes_{0};
  std::mutex mutex_;
  OpTimes times_;  // Guarded by mutex_.
};

// A TcpServer session handler forwarding to the server's shared probe.
class SessionHandler final : public MessageHandler {
 public:
  explicit SessionHandler(ProbedHandler* probe) : probe_(probe) {}
  Message Handle(const Message& request) override { return probe_->Handle(request); }

 private:
  ProbedHandler* probe_;
};

struct Usage {
  double cpu_s = 0.0;
  int64_t nvcsw = 0;
  double maxrss_mb = 0.0;
};

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage usage;
  usage.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  usage.nvcsw = ru.ru_nvcsw;
  usage.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return usage;
}

// --- Workload definitions -----------------------------------------------

enum class Kind { kFftParityTcp, kMvecMirrorTierTcp, kCrashParityInproc };

struct WorkloadSpec {
  Kind kind;
  const char* name;
};

constexpr WorkloadSpec kWorkloads[] = {
    {Kind::kFftParityTcp, "fft-parity-tcp"},
    {Kind::kMvecMirrorTierTcp, "mvec-mirror-tier-tcp"},
    {Kind::kCrashParityInproc, "crash-parity-inproc"},
};

// The paper's application frame budget: 18 MB of a 32 MB DEC Alpha.
constexpr uint32_t kFrames = 2304;
constexpr double kFftInputMb = 48.0;      // 6144 pages, 2.7x the budget.
constexpr uint64_t kMvecN = 3500;         // 11,963 pages, ~9,700 pageouts.
constexpr uint64_t kCrashPages = 4608;    // 2x the budget.
constexpr int kCrashCycles = 3;           // One crash per data server.
constexpr uint32_t kCrashWritePct = 20;   // Read-mostly.
constexpr uint64_t kCrashPostAccesses = 2000;
// Simulated time the application computes between accesses in the crash
// workload: it paces heartbeats (one round every 500 accesses), nothing
// more. It is never reported.
constexpr DurationNs kThinkTime = Micros(100);

struct Options {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool corrupt_pagein = false;
};

// Everything one round measured.
struct Round {
  bool traced = false;
  double setup_s = 0.0;
  double run_s = 0.0;
  // Wall and CPU time of each slice of the timed stream: kStreamSlices
  // equal parts of a TCP stream, one entry per crash cycle in the crash
  // workload.
  std::vector<double> slice_s;
  std::vector<double> slice_cpu_s;
  std::vector<double> fault_us;
  int64_t accesses = 0;
  int64_t failed = 0;
  double cpu_s = 0.0;
  int64_t nvcsw = 0;
  uint64_t rpcs = 0;
  uint64_t wire_bytes = 0;
  uint64_t server_physical_bytes = 0;
  uint64_t user_bytes = 0;
  VmStats vm;
  BackendStats backend;
  // Timing-only (traced rounds).
  int64_t access_ns_in_faults = 0;
  int64_t backend_ns = 0;
  OpTimes client;
  OpTimes server;
  // Tier.
  uint64_t cold_pages = 0;
  uint64_t stored_pages = 0;
  uint64_t cold_source_bytes = 0;
  uint64_t cold_stored_bytes = 0;
  uint64_t dedup_hits = 0;
  // Crash cycles.
  std::vector<double> stall_ms;
  std::vector<double> exposed_ms;
  double repair_ms = 0.0;
  int64_t pages_rebuilt = 0;
};

// One cluster of in-process memory servers with probed handlers, a policy
// backend over them, and the VM on top. Members are declared in teardown
// order reversed: the VM goes first, the servers last.
class Rig {
 public:
  Rig(const Options& options, uint64_t virtual_pages, bool compressible)
      : options_(options), compressible_(compressible), expected_seq_(virtual_pages, 0) {}

  Status AddServers(int count, const MemoryServerParams& params, bool tcp) {
    for (int i = 0; i < count; ++i) {
      MemoryServerParams p = params;
      p.name = "server-" + std::to_string(i);
      servers_.push_back(std::make_unique<MemoryServer>(p));
      probes_.push_back(
          std::make_unique<ProbedHandler>(servers_.back().get(), &corrupt_next_pagein_));
      ProbedHandler* probe = probes_.back().get();
      if (tcp) {
        TcpServerOptions server_options;
        server_options.service_workers = 1;
        server_options.reactor.loop_threads = 1;
        auto listener = TcpServer::Start(
            0, [probe] { return std::unique_ptr<MessageHandler>(new SessionHandler(probe)); },
            server_options);
        if (!listener.ok()) {
          return listener.status();
        }
        auto transport = TcpTransport::Connect("127.0.0.1", (*listener)->port());
        if (!transport.ok()) {
          return transport.status();
        }
        listeners_.push_back(std::move(*listener));
        cluster_.AddPeer(p.name, std::move(*transport));
      } else {
        auto transport = std::make_unique<InProcTransport>(probe);
        inproc_.push_back(transport.get());
        cluster_.AddPeer(p.name, std::move(transport));
      }
    }
    return OkStatus();
  }

  void StartParityLogging(size_t parity_peer) {
    auto backend = std::make_unique<ParityLoggingBackend>(
        std::move(cluster_), std::make_shared<NetworkFabric>(), RemotePagerParams{}, parity_peer);
    parity_ = backend.get();
    Finish(std::move(backend));
  }

  void StartMirroring() {
    Finish(std::make_unique<MirroringBackend>(std::move(cluster_),
                                              std::make_shared<NetworkFabric>(),
                                              RemotePagerParams{}));
  }

  void EnableSelfHealing() {
    monitor_ = std::make_unique<HealthMonitor>(&pager_->cluster(), HealthParams{});
    repair_ = std::make_unique<RepairCoordinator>(pager_, monitor_.get(), RepairParams{});
  }

  void SetTiming(bool on) {
    probe_->set_timing(on);
    for (auto& probe : probes_) {
      probe->set_timing(on);
    }
  }

  // One application access. Writes stamp the page with its next sequence
  // number; reads check the stamp of the last write. Returns the access's
  // wall time in ns when it called the backend (a fault), else nullopt.
  std::optional<int64_t> Step(const Access& access, Round* round) {
    const uint64_t addr = static_cast<uint64_t>(access.vpage) * kPageSize;
    uint32_t& seq = expected_seq_[access.vpage];
    if (access.write) {
      FillPage(buffer_.span(), options_.seed, access.vpage, seq + 1, compressible_);
    }
    const int64_t calls_before = probe_->calls();
    const int64_t inside_before = probe_->inside_ns();
    const auto start = Clock::now();
    const Status status = access.write ? vm_->Write(&sim_now_, addr, buffer_.span())
                                       : vm_->Read(&sim_now_, addr, buffer_.span());
    const auto end = Clock::now();
    ++round->accesses;
    if (!status.ok()) {
      ++round->failed;
      if (round->failed <= 3) {
        std::fprintf(stderr, "access to page %u failed: %s\n", access.vpage,
                     status.ToString().c_str());
      }
    } else if (access.write) {
      ++seq;
    } else if (!PageMatches(access.vpage, seq)) {
      ++round->failed;
      if (round->failed <= 3) {
        std::fprintf(stderr, "page %u read back wrong content (expected write %u)\n",
                     access.vpage, seq);
      }
    }
    if (probe_->calls() == calls_before) {
      return std::nullopt;
    }
    const int64_t ns = NanosBetween(start, end);
    round->access_ns_in_faults += ns;
    round->backend_ns += probe_->inside_ns() - inside_before;
    return ns;
  }

  // Reads every page once and checks it; not a timed part of any stream.
  void CheckEveryPage(Round* round) {
    Round scratch;
    for (uint64_t p = 0; p < expected_seq_.size(); ++p) {
      (void)Step({static_cast<uint32_t>(p), false}, &scratch);
    }
    round->accesses += scratch.accesses;
    round->failed += scratch.failed;
  }

  // Counters that delimit a timed stream.
  struct Mark {
    Usage usage;
    uint64_t rpcs = 0;
    uint64_t bytes = 0;
  };
  Mark TakeMark() const {
    Mark mark;
    mark.usage = ReadUsage();
    for (const auto& probe : probes_) {
      mark.rpcs += probe->calls();
      mark.bytes += probe->bytes();
    }
    return mark;
  }

  void CloseStream(const Mark& begin, Round* round) {
    const Mark end = TakeMark();
    round->slice_cpu_s.push_back(end.usage.cpu_s - begin.usage.cpu_s);
    round->cpu_s += round->slice_cpu_s.back();
    round->nvcsw += end.usage.nvcsw - begin.usage.nvcsw;
    round->rpcs += end.rpcs - begin.rpcs;
    round->wire_bytes += end.bytes - begin.bytes;
  }

  // End-of-stream snapshot of the VM, policy and store counters.
  void Snapshot(Round* round) {
    round->vm = vm_->stats();
    round->backend = pager_->stats();
    round->user_bytes = 0;
    for (const uint32_t seq : expected_seq_) {
      round->user_bytes += seq > 0 ? kPageSize : 0;
    }
    for (const auto& server : servers_) {
      const TierOccupancy occ = server->tier_occupancy();
      round->server_physical_bytes += occ.physical_bytes;
      round->cold_pages += occ.cold_pages;
      round->stored_pages += occ.hot_pages + occ.cold_pages + occ.zero_pages;
      round->cold_source_bytes += server->stats().cold_source_bytes;
      round->cold_stored_bytes += server->stats().cold_stored_bytes;
      round->dedup_hits += server->stats().dedup_hits;
    }
    round->client = probe_->times();
    for (auto& probe : probes_) {
      OpTimes t = probe->TakeTimes();
      round->server.busy_ns += t.busy_ns;
      round->server.pagein_us.insert(round->server.pagein_us.end(), t.pagein_us.begin(),
                                     t.pagein_us.end());
      round->server.pageout_us.insert(round->server.pageout_us.end(), t.pageout_us.begin(),
                                      t.pageout_us.end());
    }
  }

  ParityLoggingBackend* parity() { return parity_; }
  HealthMonitor* monitor() { return monitor_.get(); }
  RepairCoordinator* repair() { return repair_.get(); }
  // Self-test: the next PAGEIN reply any server sends gets one byte flipped.
  void CorruptNextPageIn() { corrupt_next_pagein_.store(true); }
  TimeNs& sim_now() { return sim_now_; }

  // In-proc crash injection, the same steps as Testbed::CrashServer and
  // Testbed::RestartServer: the store empties and the transport drops.
  void CrashServer(size_t i) {
    servers_[i]->Crash();
    inproc_[i]->Disconnect();
  }
  void RestartServer(size_t i) {
    servers_[i]->Restart();
    servers_[i]->ResetStats();
    inproc_[i]->Reconnect();
  }

 private:
  void Finish(std::unique_ptr<RemotePagerBase> backend) {
    pager_ = backend.get();
    backend_ = std::move(backend);
    probe_ = std::make_unique<ProbedBackend>(backend_.get());
    vm_ = std::make_unique<PagedVm>(
        VmParams{.virtual_pages = expected_seq_.size(), .physical_frames = kFrames},
        probe_.get());
  }

  bool PageMatches(uint32_t vpage, uint32_t seq) {
    if (seq == 0) {
      return std::all_of(buffer_.span().begin(), buffer_.span().end(),
                         [](uint8_t b) { return b == 0; });
    }
    FillPage(expected_.span(), options_.seed, vpage, seq, compressible_);
    return std::memcmp(expected_.data(), buffer_.data(), kPageSize) == 0;
  }

  const Options& options_;
  const bool compressible_;
  std::vector<uint32_t> expected_seq_;  // Last write's sequence number per page.
  PageBuffer buffer_;
  PageBuffer expected_;
  TimeNs sim_now_ = 0;
  std::atomic<bool> corrupt_next_pagein_{false};

  std::vector<std::unique_ptr<MemoryServer>> servers_;
  std::vector<std::unique_ptr<ProbedHandler>> probes_;
  std::vector<std::unique_ptr<TcpServer>> listeners_;
  std::vector<InProcTransport*> inproc_;  // Owned by the backend's cluster.
  Cluster cluster_;
  std::unique_ptr<PagingBackend> backend_;
  RemotePagerBase* pager_ = nullptr;
  ParityLoggingBackend* parity_ = nullptr;
  std::unique_ptr<HealthMonitor> monitor_;
  std::unique_ptr<RepairCoordinator> repair_;
  std::unique_ptr<ProbedBackend> probe_;
  std::unique_ptr<PagedVm> vm_;
};

// --- Rounds -----------------------------------------------------------------

// Runs `stream[begin, end)` as timed foreground accesses.
void RunAccesses(Rig* rig, const std::vector<Access>& stream, size_t begin, size_t end,
                 Round* round) {
  for (size_t i = begin; i < end; ++i) {
    if (auto ns = rig->Step(stream[i], round)) {
      round->fault_us.push_back(static_cast<double>(*ns) / 1e3);
    }
  }
}

// Slices of a TCP round's stream; the run's run_s sums the slices' medians
// over rounds, so a burst of host slowness in one slice of one round is
// voted out instead of lengthening that round.
constexpr size_t kStreamSlices = 16;

Status RunTcpRound(const Options& options, const std::vector<Access>& stream,
                   uint64_t virtual_pages, bool last, Round* round) {
  const bool fft = options.workload->kind == Kind::kFftParityTcp;
  const auto setup_start = Clock::now();
  Rig rig(options, virtual_pages, /*compressible=*/!fft);
  MemoryServerParams params;
  if (fft) {
    params.capacity_pages = 3 * virtual_pages;  // Stale log versions + parity.
    RMP_RETURN_IF_ERROR(rig.AddServers(4, params, /*tcp=*/true));
    rig.StartParityLogging(/*parity_peer=*/3);
  } else {
    params.capacity_pages = 2 * virtual_pages;
    params.tier.hot_page_limit = 2048;
    RMP_RETURN_IF_ERROR(rig.AddServers(2, params, /*tcp=*/true));
    rig.StartMirroring();
  }
  round->setup_s = SecondsSince(setup_start);

  // MVEC pages in only in the last round's read-back, so the self-test
  // corrupts that round.
  if (options.corrupt_pagein && last) {
    rig.CorruptNextPageIn();
  }
  rig.SetTiming(round->traced);
  for (size_t s = 0; s < kStreamSlices; ++s) {
    const Rig::Mark begin = rig.TakeMark();
    const auto start = Clock::now();
    RunAccesses(&rig, stream, s * stream.size() / kStreamSlices,
                (s + 1) * stream.size() / kStreamSlices, round);
    round->slice_s.push_back(SecondsSince(start));
    round->run_s += round->slice_s.back();
    rig.CloseStream(begin, round);
  }
  rig.Snapshot(round);
  rig.SetTiming(false);
  if (last) {
    rig.CheckEveryPage(round);
  }
  return OkStatus();
}

// The crash schedule a seed fixes: which data server dies in each cycle and
// how many accesses run before the crash.
struct CrashCycle {
  size_t victim = 0;
  uint64_t accesses_before = 0;
};

std::vector<CrashCycle> CrashSchedule(uint64_t seed) {
  uint64_t state = Mix(seed, 0xc4a5);
  std::vector<size_t> victims = {0, 1, 2};
  for (size_t i = victims.size() - 1; i > 0; --i) {
    std::swap(victims[i], victims[SplitMix(&state) % (i + 1)]);
  }
  std::vector<CrashCycle> cycles;
  for (int c = 0; c < kCrashCycles; ++c) {
    cycles.push_back({victims[static_cast<size_t>(c) % victims.size()],
                      1500 + SplitMix(&state) % 500});
  }
  return cycles;
}

Status RunCrashRound(const Options& options, const std::vector<Access>& stream,
                     const std::vector<CrashCycle>& cycles, bool first, Round* round) {
  const auto setup_start = Clock::now();
  Rig rig(options, kCrashPages, /*compressible=*/false);
  MemoryServerParams params;
  params.capacity_pages = 4 * kCrashPages;
  RMP_RETURN_IF_ERROR(rig.AddServers(4, params, /*tcp=*/false));
  rig.StartParityLogging(/*parity_peer=*/3);
  rig.EnableSelfHealing();
  // Preload: write every page once through the VM, then let the monitor
  // record every server's incarnation.
  Round preload;
  for (uint64_t p = 0; p < kCrashPages; ++p) {
    (void)rig.Step({static_cast<uint32_t>(p), true}, &preload);
  }
  if (preload.failed > 0) {
    return InternalError("preload failed");
  }
  TimeNs& now = rig.sim_now();
  RMP_ASSIGN_OR_RETURN(now, rig.repair()->Pump(now));
  round->setup_s = SecondsSince(setup_start);

  if (options.corrupt_pagein && first) {
    rig.CorruptNextPageIn();
  }
  rig.SetTiming(round->traced);
  RepairCoordinator& repair = *rig.repair();
  // Every access advances the simulated clock by the think time and gives
  // the coordinator a turn, as a paging daemon's heartbeat timer would.
  auto pump = [&]() -> Status {
    now += kThinkTime;
    const auto start = Clock::now();
    auto pumped = repair.Pump(now);
    round->repair_ms += SecondsSince(start) * 1e3;
    RMP_RETURN_IF_ERROR(pumped.status());
    now = *pumped;
    return OkStatus();
  };
  const int64_t rebuilt_before =
      rig.parity()->stats().reconstructions + repair.stats().pages_resilvered;

  size_t next = 0;
  for (const CrashCycle& cycle : cycles) {
    const Rig::Mark begin = rig.TakeMark();
    const auto start = Clock::now();
    for (uint64_t i = 0; i < cycle.accesses_before; ++i) {
      RunAccesses(&rig, stream, next, next + 1, round);
      ++next;
      RMP_RETURN_IF_ERROR(pump());
    }
    const int64_t completed_before = repair.stats().repairs_completed;
    rig.CrashServer(cycle.victim);
    const auto crashed = Clock::now();
    double stall_ms = 0.0;
    std::optional<double> exposed_ms;
    for (uint64_t i = 0; i < kCrashPostAccesses || !exposed_ms; ++i) {
      if (next >= stream.size()) {
        return InternalError("redundancy not restored before the access stream ran out");
      }
      const size_t faults_before = round->fault_us.size();
      RunAccesses(&rig, stream, next, next + 1, round);
      ++next;
      if (!exposed_ms && round->fault_us.size() > faults_before) {
        stall_ms = std::max(stall_ms, round->fault_us.back() / 1e3);
      }
      RMP_RETURN_IF_ERROR(pump());
      if (!exposed_ms && repair.idle() && repair.stats().repairs_completed > completed_before) {
        exposed_ms = SecondsSince(crashed) * 1e3;
      }
    }
    round->slice_s.push_back(SecondsSince(start));
    round->run_s += round->slice_s.back();
    rig.CloseStream(begin, round);
    round->stall_ms.push_back(stall_ms);
    round->exposed_ms.push_back(*exposed_ms);

    // Untimed: every page must read back after the recovery; then the
    // victim reboots empty and rejoins.
    rig.SetTiming(false);
    rig.CheckEveryPage(round);
    rig.RestartServer(cycle.victim);
    for (int tries = 0; rig.monitor()->health(cycle.victim) != PeerHealth::kAlive; ++tries) {
      if (tries > 100) {
        return InternalError("restarted server did not rejoin");
      }
      RMP_ASSIGN_OR_RETURN(now, repair.Pump(now + HealthParams{}.heartbeat_interval));
    }
    rig.SetTiming(round->traced);
  }
  round->pages_rebuilt =
      rig.parity()->stats().reconstructions + repair.stats().pages_resilvered - rebuilt_before;
  rig.Snapshot(round);
  rig.SetTiming(false);
  return OkStatus();
}

// --- Reporting ------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

template <typename F>
double MedianOver(const std::vector<Round>& rounds, F f) {
  std::vector<double> values;
  for (const Round& r : rounds) {
    values.push_back(f(r));
  }
  return Median(std::move(values));
}

std::vector<double> Pooled(const std::vector<Round>& rounds,
                           std::vector<double> Round::*field) {
  std::vector<double> all;
  for (const Round& r : rounds) {
    all.insert(all.end(), (r.*field).begin(), (r.*field).end());
  }
  return all;
}

std::vector<double> PooledTimes(const std::vector<Round>& rounds, OpTimes Round::*side,
                                std::vector<double> OpTimes::*field) {
  std::vector<double> all;
  for (const Round& r : rounds) {
    const std::vector<double>& v = (r.*side).*field;
    all.insert(all.end(), v.begin(), v.end());
  }
  return all;
}

// A stream total (wall or CPU seconds) as the sum over its slices of each
// slice's median across rounds (every round runs the identical stream).
double SliceMedianSum(const std::vector<Round>& rounds, std::vector<double> Round::*slices) {
  double total = 0.0;
  for (size_t s = 0; s < (rounds.front().*slices).size(); ++s) {
    total += MedianOver(rounds, [s, slices](const Round& r) { return (r.*slices)[s]; });
  }
  return total;
}

double RunSeconds(const std::vector<Round>& rounds) {
  return SliceMedianSum(rounds, &Round::slice_s);
}

double PerFault(double total, const Round& r) {
  return Ratio(total, static_cast<double>(r.fault_us.size()));
}

std::vector<Metric> EndToEnd(const std::vector<Round>& rounds) {
  const std::vector<double> faults = Pooled(rounds, &Round::fault_us);
  double peak_rss = ReadUsage().maxrss_mb;
  return {
      {"setup_s", MedianOver(rounds, [](const Round& r) { return r.setup_s; }), "s"},
      {"fault_p50_us", Quantile(faults, 0.5), "us"},
      {"cpu_us_per_fault",
       PerFault(SliceMedianSum(rounds, &Round::slice_cpu_s) * 1e6, rounds.front()), "us"},
      {"wire_bytes_per_fault",
       MedianOver(rounds,
                  [](const Round& r) { return PerFault(static_cast<double>(r.wire_bytes), r); }),
       "B"},
      {"server_bytes_per_page", MedianOver(rounds,
                                           [](const Round& r) {
                                             return Ratio(
                                                 static_cast<double>(r.server_physical_bytes),
                                                 static_cast<double>(r.user_bytes));
                                           }),
       "ratio"},
      {"peak_rss_mb", peak_rss, "MB"},
  };
}

std::vector<Metric> PerLayer(const std::vector<Round>& traced, const std::vector<Round>& plain) {
  const Round& r = traced.front();  // Exact counts repeat in every round.
  const double faults = static_cast<double>(r.fault_us.size());
  const auto med = [&traced](auto f) { return MedianOver(traced, f); };
  const double core_pagein_p50 =
      Quantile(PooledTimes(traced, &Round::client, &OpTimes::pagein_us), 0.5);
  const double server_pagein_p50 =
      Quantile(PooledTimes(traced, &Round::server, &OpTimes::pagein_us), 0.5);
  const auto fault_p50 = [](const std::vector<Round>& rounds) {
    return Quantile(Pooled(rounds, &Round::fault_us), 0.5);
  };
  const auto mean_of = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) {
      sum += x;
    }
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  const double crashes = static_cast<double>(r.stall_ms.size());
  return {
      // Too unsteady between runs on a shared host to gate on (NOTES.md);
      // reported from the untraced rounds of the traced run.
      {"run_s", RunSeconds(plain), "s"},
      {"fault_p99_us", Quantile(Pooled(plain, &Round::fault_us), 0.99), "us"},
      {"vm.faults", faults, "count"},
      {"vm.hit_ratio", Ratio(static_cast<double>(r.vm.hits), static_cast<double>(r.vm.accesses)),
       "ratio"},
      {"vm.self_us_per_fault", med([](const Round& x) {
         return Ratio(static_cast<double>(x.access_ns_in_faults - x.backend_ns) / 1e3,
                      static_cast<double>(x.fault_us.size()));
       }),
       "us"},
      {"core.pagein_p50_us", core_pagein_p50, "us"},
      {"core.pagein_p99_us",
       Quantile(PooledTimes(traced, &Round::client, &OpTimes::pagein_us), 0.99), "us"},
      {"core.pageout_p50_us",
       Quantile(PooledTimes(traced, &Round::client, &OpTimes::pageout_us), 0.5), "us"},
      {"core.pageout_p99_us",
       Quantile(PooledTimes(traced, &Round::client, &OpTimes::pageout_us), 0.99), "us"},
      {"core.rpcs_per_fault", Ratio(static_cast<double>(r.rpcs), faults), "ratio"},
      {"core.transfers_per_pageout",
       Ratio(static_cast<double>(r.backend.page_transfers - r.backend.pageins),
             static_cast<double>(r.backend.pageouts)),
       "ratio"},
      {"core.degraded_reads", static_cast<double>(r.backend.degraded_reads), "count"},
      {"core.reconstructions", static_cast<double>(r.backend.reconstructions), "count"},
      {"crash.recover_stall_ms", med([&](const Round& x) { return mean_of(x.stall_ms); }), "ms"},
      {"crash.exposed_ms", med([&](const Round& x) { return mean_of(x.exposed_ms); }), "ms"},
      {"repair.ms_per_crash",
       med([](const Round& x) {
         return Ratio(x.repair_ms, static_cast<double>(x.stall_ms.size()));
       }),
       "ms"},
      {"repair.pages_per_crash", Ratio(static_cast<double>(r.pages_rebuilt), crashes), "count"},
      {"repair.us_per_page", med([&](const Round& x) {
         double stall = 0.0;
         for (double s : x.stall_ms) {
           stall += s;
         }
         return Ratio((stall + x.repair_ms) * 1e3, static_cast<double>(x.pages_rebuilt));
       }),
       "us"},
      {"proto.bytes_per_rpc",
       Ratio(static_cast<double>(r.wire_bytes), static_cast<double>(r.rpcs)), "B"},
      {"proto.header_share",
       Ratio(static_cast<double>(2 * kWirePrefixSize * r.rpcs),
             static_cast<double>(r.wire_bytes)),
       "ratio"},
      {"transport.overhead_us", core_pagein_p50 - server_pagein_p50, "us"},
      {"transport.vcsw_per_fault",
       med([](const Round& x) {
         return Ratio(static_cast<double>(x.nvcsw), static_cast<double>(x.fault_us.size()));
       }),
       "count"},
      {"transport.cpu_us_per_fault",
       med([](const Round& x) {
         return Ratio(x.cpu_s * 1e6 - static_cast<double>(x.server.busy_ns) / 1e3,
                      static_cast<double>(x.fault_us.size()));
       }),
       "us"},
      {"server.pagein_service_p50_us", server_pagein_p50, "us"},
      {"server.pageout_service_p50_us",
       Quantile(PooledTimes(traced, &Round::server, &OpTimes::pageout_us), 0.5), "us"},
      {"server.busy_share",
       med([](const Round& x) { return Ratio(static_cast<double>(x.server.busy_ns) / 1e9,
                                             x.run_s); }),
       "ratio"},
      {"server.cold_share",
       Ratio(static_cast<double>(r.cold_pages), static_cast<double>(r.stored_pages)), "ratio"},
      {"server.compress_ratio",
       Ratio(static_cast<double>(r.cold_source_bytes), static_cast<double>(r.cold_stored_bytes)),
       "ratio"},
      {"server.dedup_hits", static_cast<double>(r.dedup_hits), "count"},
      {"trace.overhead_pct", 100.0 * (fault_p50(traced) / fault_p50(plain) - 1.0), "%"},
      {"trace.run_overhead_pct", 100.0 * (RunSeconds(traced) / RunSeconds(plain) - 1.0), "%"},
  };
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(const std::vector<Metric>& metrics, bool correct, int64_t attempted,
                 int64_t failed) {
  for (const Metric& m : metrics) {
    std::printf("%-32s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-32s %16.6f ratio (%lld of %lld accesses)\n", "failed_op_ratio",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<long long>(failed), static_cast<long long>(attempted));
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- Main -----------------------------------------------------------------

constexpr int kMinRounds = 3;

int UsageError(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: pager_bench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--corrupt-pagein]\nworkloads:",
               msg);
  for (const WorkloadSpec& w : kWorkloads) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  // One client event loop beside the one paging thread (read before the
  // first connection creates the shared client reactor).
  setenv("RMP_CLIENT_LOOPS", "1", /*overwrite=*/1);
  // A fixed mmap threshold: glibc otherwise raises it after the first large
  // free, and whether later slab and extent allocations land in mmap or in
  // a thread arena then depends on thread timing — peak RSS with it.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      const std::string name = argv[++i];
      for (const WorkloadSpec& w : kWorkloads) {
        if (name == w.name) {
          options.workload = &w;
        }
      }
      if (options.workload == nullptr) {
        return UsageError(("unknown workload: " + name).c_str());
      }
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--corrupt-pagein") {
      options.corrupt_pagein = true;
    } else {
      return UsageError(("bad argument: " + arg).c_str());
    }
  }
  if (options.workload == nullptr || options.seconds <= 0) {
    return UsageError("missing --workload or --seconds");
  }

  // Inputs, made from the seed before anything is timed.
  std::vector<Access> stream;
  std::vector<CrashCycle> cycles;
  uint64_t virtual_pages = 0;
  switch (options.workload->kind) {
    case Kind::kFftParityTcp:
    case Kind::kMvecMirrorTierTcp: {
      const auto workload = options.workload->kind == Kind::kFftParityTcp ? MakeFft(kFftInputMb)
                                                                          : MakeMvec(kMvecN);
      stream = RecordStream(*workload);
      for (const Access& a : stream) {
        virtual_pages = std::max<uint64_t>(virtual_pages, a.vpage + 1);
      }
      break;
    }
    case Kind::kCrashParityInproc: {
      cycles = CrashSchedule(options.seed);
      uint64_t length = 0;
      for (const CrashCycle& c : cycles) {
        length += c.accesses_before + kCrashPostAccesses;
      }
      length += 20000;  // Slack for a slow detection; unused accesses are not run.
      uint64_t state = Mix(options.seed, 0x57ea);
      for (uint64_t i = 0; i < length; ++i) {
        const uint64_t r = SplitMix(&state);
        stream.push_back({static_cast<uint32_t>(r % kCrashPages), (r >> 40) % 100 < kCrashWritePct});
      }
      virtual_pages = kCrashPages;
      break;
    }
  }

  // Rounds. In a traced run, traced and untraced rounds alternate, so the
  // tracing overhead is measured under the same host phase.
  std::vector<Round> rounds;
  const int min_rounds = options.trace ? 2 * kMinRounds : kMinRounds;
  const auto run_start = Clock::now();
  int64_t failed = 0;
  int64_t attempted = 0;
  for (bool last = false; !last;) {
    Round round;
    round.traced = options.trace && rounds.size() % 2 == 1;
    // The last round is the one expected to end past --seconds; it also
    // reads every page back. (Once min_rounds - 1 rounds are done, at least
    // two are, so the mean round time is defined.)
    const double elapsed = SecondsSince(run_start);
    const bool first = rounds.empty();
    last = static_cast<int>(rounds.size()) + 1 >= min_rounds &&
           elapsed + elapsed / static_cast<double>(rounds.size()) >= options.seconds;
    Status status = options.workload->kind == Kind::kCrashParityInproc
                        ? RunCrashRound(options, stream, cycles, first, &round)
                        : RunTcpRound(options, stream, virtual_pages, last, &round);
    failed += round.failed;
    attempted += round.accesses;
    if (!status.ok()) {
      std::fprintf(stderr, "round %zu: %s\n", rounds.size(), status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "round %zu%s: setup %.4f s, run %.4f s, fault p50 %.1f us, cpu %.3f s",
                 rounds.size(), round.traced ? " (traced)" : "", round.setup_s, round.run_s,
                 Quantile(round.fault_us, 0.5), round.cpu_s);
    for (double stall : round.stall_ms) {
      std::fprintf(stderr, ", stall %.1f ms", stall);
    }
    std::fprintf(stderr, "\n");
    rounds.push_back(std::move(round));
    // Hand the torn-down cluster's memory back, so one round's leftovers do
    // not raise the next round's peak.
    malloc_trim(0);
  }

  std::vector<Round> traced;
  std::vector<Round> plain;
  for (Round& r : rounds) {
    (r.traced ? traced : plain).push_back(r);
  }
  std::printf("%s seed=%llu: %zu rounds, %zu fault samples (%zu per round)\n",
              options.workload->name, static_cast<unsigned long long>(options.seed),
              rounds.size(), Pooled(options.trace ? traced : rounds, &Round::fault_us).size(),
              rounds.front().fault_us.size());
  const std::vector<Metric> metrics = options.trace ? PerLayer(traced, plain) : EndToEnd(rounds);
  const bool correct = failed == 0;
  PrintResult(metrics, correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace rmp::perfbench

int main(int argc, char** argv) { return rmp::perfbench::Main(argc, argv); }

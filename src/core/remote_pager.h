// Shared machinery of every remote-memory paging policy: the cluster view,
// the shared network fabric, slot acquisition with extent-granularity
// allocation, and the transfer-time accounting that feeds BackendStats.

#ifndef SRC_CORE_REMOTE_PAGER_H_
#define SRC_CORE_REMOTE_PAGER_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/fabric.h"
#include "src/core/paging_backend.h"
#include "src/util/events.h"
#include "src/util/metrics.h"
#include "src/util/rng.h"
#include "src/util/slo.h"
#include "src/util/tracing.h"

namespace rmp {

// How the client picks a server for a fresh page (§2.1 describes most-free;
// parity logging requires round robin by construction).
enum class ServerSelection { kMostFree, kRoundRobin };

// Failure-detector tuning. A fault can be *transient* (a dropped request or
// ack, a corrupted frame the CRC rejected, a late reply) or *permanent* (the
// server workstation crashed, §2.2). The client cannot tell which from a
// single failed RPC, so it retries with exponential backoff while the
// connection still looks healthy and only then lets the policy lay in its
// degraded path (failover read, parity reconstruction, disk fallback).
struct RetryParams {
  // Total tries per RPC including the first; <=1 disables retries.
  int max_attempts = 3;
  // Backoff before attempt k is base << (k-1), capped at `backoff_max`,
  // then jittered by +/- `jitter` of itself so synchronized retry storms
  // decorrelate. Charged to simulated time and stats_.backoff_time.
  DurationNs backoff_base = Micros(500);
  DurationNs backoff_max = Millis(8);
  double jitter = 0.2;
  // Seed of the private jitter RNG; runs stay bit-reproducible.
  uint64_t jitter_seed = 0x7e57ab1e;
};

struct RemotePagerParams {
  // Swap slots requested per ALLOC_REQUEST; amortizes control traffic.
  uint64_t alloc_extent_pages = 256;
  ServerSelection selection = ServerSelection::kMostFree;
  RetryParams retry;
  // Page-lifecycle tracer tuning (DESIGN.md §12/§17): ring size, slow-op
  // threshold, span cap, head-sampling rate.
  PageTracerOptions trace;
  // Client-side flight recorder (DESIGN.md §17).
  EventJournalOptions events;
  // Paging SLO window feeding the `slo.*` gauges (DESIGN.md §17).
  SloParams slo;
  // Proactive cluster-map refresh period (`cluster.epoch_refresh_ms`,
  // DESIGN.md §16). 0 = refresh only reactively, when a server denies an op
  // with STALE_EPOCH — the cheapest correct configuration, since the denial
  // carries the new epoch anyway.
  DurationNs map_refresh_interval = 0;
};

class RemotePagerBase : public PagingBackend {
 public:
  const BackendStats& stats() const override { return stats_; }

  Cluster& cluster() { return cluster_; }
  NetworkFabric& fabric() { return *fabric_; }

  // --- Telemetry (DESIGN.md §12) -------------------------------------------
  // The backend's registry: trace stage/total histograms land here live;
  // SyncStatsToMetrics mirrors the BackendStats counters in (keys
  // `backend.*`) so one snapshot carries both.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  PageTracer& tracer() { return tracer_; }
  void SyncStatsToMetrics();
  // The client's flight recorder (DESIGN.md §17): map adoptions, stale-epoch
  // denials, and whatever the Testbed's state machines append through it.
  EventJournal& events() { return events_; }
  // The paging SLO window behind the `slo.*` gauges; fed by the tracer on
  // every completed (sampled) trace.
  SloTracker& slo() { return slo_; }

  // --- Self-healing hooks (DESIGN.md §11) ----------------------------------
  // Incremental, idempotent work quanta the RepairCoordinator drives under
  // its token bucket. Both return the number of pages processed this call;
  // 0 means "nothing left to do" and completes the job. Progress is tracked
  // in the policy's own tables (an orphaned replica resilvered updates the
  // mirror table; an affected parity group dissolved leaves the affected
  // set), so a step never repeats finished work and the pair of calls
  // (step, step, ...) converges without coordinator-side cursors.

  // Restores redundancy lost to the crash of `peer`: re-replicates orphaned
  // mirror copies, rebuilds parity-group members by degraded reconstruction,
  // re-uploads write-through pages from disk. At most `max_pages` pages of
  // repair traffic are moved. Default: nothing to repair.
  virtual Result<uint64_t> RepairStep(size_t peer, uint64_t max_pages, TimeNs* now);

  // Moves up to `max_pages` pages off the (live but overloaded) `peer` to
  // other servers or local disk — the §2.1 migration story, triggered by
  // ADVISE_STOP. Default: nothing to drain.
  virtual Result<uint64_t> MigrateStep(size_t peer, uint64_t max_pages, TimeNs* now);

  // --- Elastic membership (DESIGN.md §16) ----------------------------------

  // Moves up to `max_pages` pages whose placement disagrees with the adopted
  // cluster map onto their map owners, each through MoveCopy so a crash
  // mid-move never leaves the page without a live source. Returns pages
  // moved; 0 = the placement already matches the map. Default: nothing to
  // rebalance.
  virtual Result<uint64_t> RebalanceStep(uint64_t max_pages, TimeNs* now);

  // Slots the policy occupies on `peer`, counted off ScanStoredCopies:
  // replica copies, retired parity-group members and parity pages all count,
  // because each still holds a server slot. Drives decommission completion:
  // a kLeaving member with PagesOn == 0 can be dropped from the map.
  uint64_t PagesOn(size_t peer) const;

  // Adopts `map` when it is newer than the current one: records it, stamps
  // every peer's epoch (so subsequent data ops carry it in `aux`), and lets
  // the map drive peer placement state (kLeaving / absent members stop
  // receiving new pages). When `publish` is set, best-effort MAP_PUBLISHes
  // the map to every alive peer — the client doubles as map coordinator, the
  // same role the paper gives it for placement. Charges control traffic to
  // *now. Returns true when the map was adopted (false = not newer).
  bool AdoptClusterMap(const ClusterMap& map, TimeNs* now, bool publish = true);

  // Queries every alive peer for its map and adopts the newest one found.
  // The reactive half of stale-epoch recovery: a STALE_EPOCH denial calls
  // this before the retry. Unavailable when no peer returned a map.
  Status RefreshClusterMap(TimeNs* now);

  bool has_cluster_map() const { return has_map_; }
  const ClusterMap& cluster_map() const { return map_; }

  // True when an adopted map keeps `peer` from taking new pages (a kLeaving
  // or absent member). Load probes must not reopen such a peer: the map, not
  // the server's free space, owns its placement state.
  bool MapStopsPeer(size_t peer) const;

  // The peer index owning `page_id` under the adopted map.
  Result<size_t> MapOwnerPeer(uint64_t page_id) const;

  // Called after a peer is appended to cluster() at runtime (scale-out):
  // wires its metrics and stamps the current map epoch onto it.
  void NotePeerAdded(size_t i);

 protected:
  RemotePagerBase(Cluster cluster, std::shared_ptr<NetworkFabric> fabric,
                  const RemotePagerParams& params)
      : cluster_(std::move(cluster)),
        fabric_(std::move(fabric)),
        params_(params),
        retry_rng_(params.retry.jitter_seed),
        tracer_(&metrics_, params.trace),
        events_(params.events),
        slo_(&metrics_, params.slo) {
    tracer_.AttachSlo(&slo_);
    for (size_t i = 0; i < cluster_.size(); ++i) {
      cluster_.peer(i).AttachMetrics(&metrics_);
      // Every RPC stamps the active trace id onto the wire (DESIGN.md §17).
      cluster_.peer(i).set_trace_source(tracer_.wire_id());
    }
  }

  // --- Failure detector ----------------------------------------------------

  // Whether an RPC failure may be transient (worth retrying): a dropped or
  // late message (kUnavailable), a socket hiccup (kIoError), or a frame the
  // CRC rejected (kCorruption). Resource and logic errors are not.
  static bool IsRetryableError(const Status& status);

  // Whether the failure detector should try `peer` again after `status`:
  // the error is retryable and the transport still reports a live
  // connection, i.e. the server process did not go away — only a message
  // did. The RPC helpers pessimistically mark the peer dead on any failure;
  // the caller un-marks it (mark_alive) before retrying.
  bool ShouldRetry(size_t peer_index, const Status& status);

  // Charges one backoff interval before retry attempt `attempt` (1-based
  // count of failures so far) to *now, stats_.backoff_time and
  // stats_.retries. Exponential with cap and seeded jitter.
  void ChargeBackoff(int attempt, TimeNs* now);

  // PageInFrom / PageOutTo with bounded retries: transient failures against
  // a still-connected peer are retried (after backoff); a dead connection
  // or a non-retryable error returns immediately so the policy can take its
  // degraded path. Transfer-time charging on success stays with the caller,
  // matching the unreliable primitives.
  Status ReliablePageIn(size_t peer_index, uint64_t slot, std::span<uint8_t> out, TimeNs* now);
  Result<bool> ReliablePageOut(size_t peer_index, uint64_t slot, std::span<const uint8_t> data,
                               TimeNs* now);

  // Charges one page-sized transfer starting at `now` to `peer`; bumps
  // transfer stats. The blocking (pagein) form waits for wire completion;
  // the async form models pageout write-behind (see
  // NetworkFabric::TransferAsync). `peer` routes over a dedicated link when
  // the fabric has one for it (§5 heterogeneous networks).
  TimeNs ChargePageTransfer(TimeNs now, size_t peer = kSharedSegment);
  TimeNs ChargePageTransferAsync(TimeNs now, size_t peer = kSharedSegment);

  // Batched variants: `pages` pages move in one message, so the fabric sees
  // a single protocol crossing and one combined wire occupancy
  // (BatchWireBytes) instead of `pages` full message overheads. Each page
  // still counts toward page_transfers.
  TimeNs ChargePageBatchTransfer(TimeNs now, uint64_t pages, size_t peer = kSharedSegment);
  TimeNs ChargePageBatchTransferAsync(TimeNs now, uint64_t pages, size_t peer = kSharedSegment);

  // Charges one small control-message exchange.
  TimeNs ChargeControl(TimeNs now, size_t peer = kSharedSegment);

  // Takes a slot from peer `i`, issuing an ALLOC_REQUEST (and charging a
  // control exchange against *now) when the local pool is dry.
  Result<uint64_t> TakeSlotOn(size_t i, TimeNs* now);

  // --- Placement and move engine --------------------------------------------
  // Every policy places pages the same way; only its redundancy rules differ
  // (which peers may hold a copy, how many copies, parity bookkeeping), and
  // those live in the pickers and table callbacks it hands these helpers.

  // A server slot holding (or about to hold) one copy of a page.
  struct SlotRef {
    size_t peer = 0;
    uint64_t slot = 0;
  };

  // Turns an ADVISE_STOP on a write ack into no_new_extents: the peer's
  // already-granted slots stay usable, but it is asked for no more (§2.1).
  // Parity writes never call this; see ParityLoggingBackend::JoinParityFlush.
  void HeedAdvice(size_t peer, bool advise_stop);

  // Writes `data` to a slot the page already owns: ReliablePageOut, the async
  // transfer charge, then HeedAdvice.
  Status StoreAt(SlotRef at, std::span<const uint8_t> data, TimeNs* now);

  // Takes a slot on `peer` and StoreAt's `data` there. A failed write hands
  // the slot back to the peer's pool (a peer that restarts drops its pool, a
  // healed one reuses the slot). Empty `data` only takes the slot.
  Result<SlotRef> StoreOnPeer(size_t peer, std::span<const uint8_t> data, TimeNs* now);

  // Names the peer for one WriteFreshSlot attempt. kNoPeer ends the search,
  // kPickAgain spends the attempt without a write, an error is returned.
  using PeerPicker = std::function<Result<size_t>(TimeNs* now)>;
  static constexpr size_t kNoPeer = ~size_t{0};
  static constexpr size_t kPickAgain = kNoPeer - 1;

  // The fresh-slot write every policy places pages with: up to
  // `max_attempts` times, asks `pick` for a peer and StoreOnPeer's `data`
  // there. kNoSpace stops that peer and a retryable error moves on to the
  // next pick; any other error is returned. std::nullopt means no peer took
  // the page (the picker ran dry or the attempts ran out), and the caller
  // falls back its own way. Empty `data` reserves a slot without writing.
  Result<std::optional<SlotRef>> WriteFreshSlot(std::span<const uint8_t> data,
                                                size_t max_attempts, const PeerPicker& pick,
                                                TimeNs* now);

  // One copy of a page as a policy's table records it. `live` is false for
  // slots that hold no current page version yet occupy the server (retired
  // parity-group members, parity pages).
  struct StoredCopy {
    uint64_t page_id = 0;
    size_t peer = 0;
    uint64_t slot = 0;
    int copy = 0;  // Which of the page's copies (a mirror's replica index).
    bool live = true;
  };
  using CopyVisitor = std::function<bool(const StoredCopy&)>;

  // The one stored-copy scan: feeds every copy the policy's table records to
  // `visit`, in table order, until `visit` returns false. PagesOn and
  // CopiesOn derive from it.
  virtual void ScanStoredCopies(const CopyVisitor& visit) const = 0;

  // Up to `max_copies` live copies on `peer`, in scan order: the victim list
  // of a migrate, repair or drain step.
  std::vector<StoredCopy> CopiesOn(size_t peer, uint64_t max_copies) const;

  // Writes a moved page to its new home, then points the table at it.
  using Relocate = std::function<Status(std::span<const uint8_t> page, TimeNs* now)>;

  // One page move in the zero-loss order (DESIGN.md §16): read the old copy
  // `from` — or, when it does not answer, the `fallback` copy — then
  // `relocate` (write the new slot, flip the table), then free the old slot
  // best-effort: a missed free costs the old server capacity, never the
  // page. On a read or relocate error the table and the old copy are left
  // as they were and the error is returned; a non-retryable read error skips
  // the fallback. A holder that failed the read but is still connected (only
  // a message was lost) is marked alive again, as ShouldRetry would.
  Status MoveCopy(const StoredCopy& from, const std::optional<SlotRef>& fallback,
                  const Relocate& relocate, TimeNs* now);

  // One page to read: its holding peer and the slot it occupies there.
  using PageWant = SlotRef;

  // The pages one BatchFetch read. Each page stays where it arrived, inside
  // its PAGEIN_BATCH reply payload: page(i) views the page for wants[i] and
  // is valid while this object lives. Nothing is copied out of the replies.
  class FetchedPages {
   public:
    std::span<const uint8_t> page(size_t i) const { return pages_[i]; }
    size_t size() const { return pages_.size(); }

   private:
    friend class RemotePagerBase;
    std::vector<std::vector<uint8_t>> payloads_;
    std::vector<std::span<const uint8_t>> pages_;  // Empty for a failed chunk.
  };

  // Fetches many stored pages with batched PAGEIN_BATCH RPCs: wants are
  // grouped by peer, chunked at kMaxBatchPages, and every chunk is started
  // before any is joined, so reads fan out across the cluster and each chunk
  // is charged as one batched transfer from the common start time. On
  // success out->page(i) is the page for wants[i] and *now advances to the
  // slowest chunk's completion. On error the first failure is returned
  // (remaining chunks are still drained, and their pages kept) and *now
  // reflects the chunks that did complete. Shared by GC compaction, crash
  // recovery, and resilvering.
  Status BatchFetch(std::span<const PageWant> wants, FetchedPages* out, TimeNs* now);

  // Picks a peer for a fresh page according to params_.selection.
  Result<size_t> PickPeer(TimeNs* now);

  // Map-aware placement: the map owner of `page_id` when a map is adopted
  // and the owner is usable, otherwise whatever PickPeer chooses. Also runs
  // the proactive map refresh when map_refresh_interval has elapsed.
  Result<size_t> PickPeerForPage(uint64_t page_id, TimeNs* now);

  // FreeOn with the shared retry taxonomy (transient errors, STALE_EPOCH).
  Status ReliableFree(size_t peer_index, uint64_t first_slot, uint64_t count, TimeNs* now);

  // Calls `step` until it reports 0 pages left or fails; returns the pages
  // processed. Turns a RepairStep/MigrateStep quantum into a one-shot
  // Recover/MigrateFrom.
  static Result<uint64_t> RunSteps(const std::function<Result<uint64_t>()>& step);

  // Opens a MigrateStep: refuses a crashed `peer` (UNAVAILABLE) and stops
  // placing new pages on a live one, so the drain converges.
  Status BeginDrain(size_t peer);

  // Reacts to a STALE_EPOCH denial: counts it, refreshes the map, and
  // charges one backoff interval before the caller retries.
  void NoteStaleEpoch(int attempt, TimeNs* now);

  // Stamps the spans of one fabric transfer (service / queue / wire) onto
  // the tracer and folds its costs into stats_; returns the completion time.
  TimeNs ChargeTransferCost(TimeNs now, const NetworkFabric::TransferCost& cost);

  Cluster cluster_;
  std::shared_ptr<NetworkFabric> fabric_;
  RemotePagerParams params_;
  BackendStats stats_;
  size_t rr_cursor_ = 0;
  Rng retry_rng_;
  MetricsRegistry metrics_;  // Declared before tracer_: its histograms live here.
  PageTracer tracer_;
  EventJournal events_;
  SloTracker slo_;  // Declared after metrics_ (its gauges live there).

 private:
  // The shared retry loop of the Reliable* RPCs: runs `op(peer)` until it
  // succeeds, fails for good, or runs out of attempts. A STALE_EPOCH denial
  // refreshes the map first; a transient loss on a still-connected peer
  // revives it and backs off.
  template <typename Op>
  auto WithRetries(size_t peer_index, TimeNs* now, const Op& op);

  // Installs `map` locally: records it and lets it drive peer epoch and
  // placement state. Does not publish.
  void AdoptLocal(const ClusterMap& map);

  // Refresh load info at most every this many pageouts (most-free mode).
  static constexpr int kLoadRefreshInterval = 64;
  int pageouts_since_refresh_ = kLoadRefreshInterval;  // Refresh on first use.

  // Elastic membership (DESIGN.md §16).
  ClusterMap map_;
  bool has_map_ = false;
  TimeNs last_map_refresh_ = 0;
};

}  // namespace rmp

#endif  // SRC_CORE_REMOTE_PAGER_H_

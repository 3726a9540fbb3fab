// Two-tier DRAM + flash cache (paper §5.4, Fig. 9): the repo's one flash
// model.
//
// A DRAM front buffers new objects, and an AdmissionPolicy decides which
// DRAM-evicted objects are written to flash. Two DRAM disciplines:
//  * kLru        — DRAM is an LRU front cache (the setup for no-admission,
//                  probabilistic, and Flashield schemes);
//  * kSmallFifo  — the paper's S3-FIFO scheme: DRAM is the small FIFO queue
//                  with a ghost queue of DRAM-evicted ids; a request for a
//                  ghost id is written straight to flash (S->G->M path).
//
// Admitted objects route by size:
//
//   size <  small_object_threshold  ->  SetAssocStore (Kangaroo-style sets)
//   size >= small_object_threshold  ->  SegmentLog (segment log + GC)
//
// With no set store, log.ordering = kFifo and log.gc_readmit = false, the
// flash tier is a pure segment-granularity FIFO: the eviction order
// production flash caches use, with write amplification exactly 1 (the
// Fig. 9 setup). Every run reports device bytes written and write
// amplification, with GC rewrite bytes and set-page writes broken out per
// component.
//
// Operation semantics (mirrored exactly by the naive oracle in src/check/):
//   kGet    — hit in DRAM (LRU move under kLru) or flash; on a miss, a
//             ghost hit is written straight to flash (kSmallFifo) and any
//             other id is inserted into DRAM, whose evictions pass through
//             admission.
//   kSet    — insert-or-overwrite. A DRAM-resident object is re-inserted
//             with the new size (fresh read/residency state); a
//             flash-resident object is dead-marked and re-admitted with the
//             new size. Both count as hits; an absent id takes the miss path.
//   kDelete — removes residency in every tier (metadata-only on flash);
//             counted separately, not as a request.
#ifndef SRC_FLASH_LOG_FLASH_CACHE_H_
#define SRC_FLASH_LOG_FLASH_CACHE_H_

#include <memory>
#include <string>

#include "src/flash/admission.h"
#include "src/flash/segment_log.h"
#include "src/flash/set_store.h"
#include "src/trace/trace.h"
#include "src/util/flat_map.h"
#include "src/util/ghost_queue.h"
#include "src/util/intrusive_list.h"

namespace s3fifo {

enum class DramDiscipline { kLru, kSmallFifo };

struct LogFlashCacheConfig {
  uint64_t dram_capacity_bytes = 0;
  DramDiscipline dram_discipline = DramDiscipline::kLru;
  // Ghost entries for kSmallFifo (0 = auto: flash capacity / 4KB).
  uint64_t ghost_entries = 0;

  SegmentLogConfig log;
  // Objects strictly smaller than this go to the set store; 0 disables it.
  // Clamped to set_store.set_bytes + 1 so routed objects always fit a set.
  uint64_t small_object_threshold = 0;
  SetStoreConfig set_store;
};

struct LogFlashCacheStats {
  uint64_t requests = 0;
  uint64_t dram_hits = 0;
  uint64_t log_hits = 0;
  uint64_t set_hits = 0;
  uint64_t misses = 0;
  uint64_t deletes = 0;
  uint64_t bytes_requested = 0;
  uint64_t bytes_missed = 0;
  uint64_t flash_evictions = 0;  // objects dropped from flash (GC / set FIFO)

  double MissRatio() const {
    return requests == 0 ? 0.0 : static_cast<double>(misses) / static_cast<double>(requests);
  }
  double ByteMissRatio() const {
    return bytes_requested == 0
               ? 0.0
               : static_cast<double>(bytes_missed) / static_cast<double>(bytes_requested);
  }
};

class LogStructuredFlashCache {
 public:
  LogStructuredFlashCache(const LogFlashCacheConfig& config,
                          std::unique_ptr<AdmissionPolicy> admission);

  // Processes one request; returns true on a hit in either tier. Ids that
  // left the flash tier during this request are in last_flash_evicted().
  bool Get(const Request& req);
  // Resizes the segment-log budget mid-run (the fuzzer's capacity resizes).
  void ResizeFlash(uint64_t num_segments);

  const LogFlashCacheStats& stats() const { return stats_; }
  const SegmentLogStats& log_stats() const { return log_.stats(); }
  const SetStoreStats& set_stats() const { return sets_.stats(); }
  const std::string AdmissionName() const { return admission_->Name(); }

  uint64_t dram_occupied() const { return dram_occ_; }
  uint64_t flash_live_bytes() const { return log_.live_bytes() + sets_.live_bytes(); }
  const SegmentLog& log() const { return log_; }
  const SetAssocStore& sets() const { return sets_; }
  const std::vector<uint64_t>& last_flash_evicted() const { return flash_evicted_; }

  // Combined device accounting across both flash components.
  uint64_t DeviceBytesWritten() const {
    return log_.stats().device_bytes_written + sets_.stats().device_bytes_written;
  }
  uint64_t AdmittedBytes() const {
    return log_.stats().admitted_bytes + sets_.stats().admitted_bytes;
  }
  double WriteAmplification() const {
    const uint64_t admitted = AdmittedBytes();
    return admitted == 0
               ? 0.0
               : static_cast<double>(DeviceBytesWritten()) / static_cast<double>(admitted);
  }

 private:
  struct DramEntry {
    uint64_t id = 0;
    uint32_t size = 1;
    uint32_t reads = 0;
    uint64_t insert_time = 0;
    ListHook hook;
  };

  void InsertDram(uint64_t id, uint32_t size);
  void EvictDramTail();
  void WriteFlash(uint64_t id, uint32_t size);
  void RecordRejection(uint64_t id);

  LogFlashCacheConfig config_;
  std::unique_ptr<AdmissionPolicy> admission_;
  uint64_t clock_ = 0;
  uint64_t rejected_bound_ = 0;

  FlatMap<DramEntry> dram_;
  IntrusiveList<DramEntry, &DramEntry::hook> dram_queue_;
  uint64_t dram_occ_ = 0;

  SegmentLog log_;
  SetAssocStore sets_;
  GhostQueue ghost_;  // used by kSmallFifo
  FlatMap<uint64_t> rejected_at_;  // id -> clock of rejection
  std::vector<uint64_t> flash_evicted_;

  LogFlashCacheStats stats_;
};

// Convenience: run a full trace (deletes included), returning the stats.
LogFlashCacheStats SimulateLogFlashCache(const Trace& trace, const LogFlashCacheConfig& config,
                                         std::unique_ptr<AdmissionPolicy> admission);

// "key=value,..." round-trip of LogFlashCacheConfig for replay files
// (see src/check/replay_file.h). Keys: dram, discipline (lru|smallfifo),
// ghost, segment, segments, ordering (fifo|ripq), readmit, sections,
// insert_prio, small, set_bytes, sets.
std::string FormatLogFlashConfig(const LogFlashCacheConfig& config);
LogFlashCacheConfig ParseLogFlashConfig(const std::string& spec);

}  // namespace s3fifo

#endif  // SRC_FLASH_LOG_FLASH_CACHE_H_

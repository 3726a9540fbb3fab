#include "src/flash/log_flash_cache.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "src/util/params.h"

namespace s3fifo {
namespace {

uint64_t FlashCapacityBytes(const LogFlashCacheConfig& config) {
  uint64_t bytes = config.log.segment_bytes * config.log.num_segments;
  if (config.small_object_threshold > 0) {
    bytes += config.set_store.set_bytes * config.set_store.num_sets;
  }
  return bytes;
}

uint64_t AutoGhostEntries(const LogFlashCacheConfig& config) {
  if (config.ghost_entries > 0) {
    return config.ghost_entries;
  }
  return std::max<uint64_t>(FlashCapacityBytes(config) / 4096, 64);
}

LogFlashCacheConfig Clamped(LogFlashCacheConfig config) {
  if (config.small_object_threshold > 0) {
    config.small_object_threshold =
        std::min(config.small_object_threshold, config.set_store.set_bytes + 1);
  }
  return config;
}

}  // namespace

LogStructuredFlashCache::LogStructuredFlashCache(const LogFlashCacheConfig& config,
                                                 std::unique_ptr<AdmissionPolicy> admission)
    : config_(Clamped(config)),
      admission_(std::move(admission)),
      rejected_bound_(4 * AutoGhostEntries(config_) + 1024),
      log_(config_.log),
      sets_(config_.set_store),
      ghost_(AutoGhostEntries(config_)) {}

bool LogStructuredFlashCache::Get(const Request& req) {
  ++clock_;
  flash_evicted_.clear();

  if (req.op == OpType::kDelete) {
    ++stats_.deletes;
    DramEntry* e = dram_.Find(req.id);
    if (e != nullptr) {
      dram_occ_ -= e->size;
      dram_queue_.Remove(e);
      dram_.Erase(req.id);
    }
    log_.Erase(req.id);
    sets_.Erase(req.id);
    return false;
  }

  ++stats_.requests;
  stats_.bytes_requested += req.size;

  DramEntry* dram_e = dram_.Find(req.id);
  if (dram_e != nullptr) {
    ++stats_.dram_hits;
    ++dram_e->reads;
    if (config_.dram_discipline == DramDiscipline::kLru) {
      dram_queue_.MoveToFront(dram_e);
    }
    if (req.op == OpType::kSet) {
      // Overwrite: re-insert with the new size and fresh read/residency
      // state (the new content has no observed history).
      dram_occ_ -= dram_e->size;
      dram_queue_.Remove(dram_e);
      dram_.Erase(req.id);
      InsertDram(req.id, req.size);
    }
    return true;
  }
  // A get's one probe of the log also marks the hit (RIPQ virtual promotion
  // / FIFO readmit bit); a set overwrites the copy instead.
  const bool in_log = req.op == OpType::kSet ? log_.Contains(req.id) : log_.Lookup(req.id);
  if (in_log || sets_.Contains(req.id)) {
    if (in_log) {
      ++stats_.log_hits;
    } else {
      ++stats_.set_hits;
    }
    if (req.op == OpType::kSet) {
      // Overwrite on flash: dead-mark the old copy, admit the new bytes.
      if (in_log) {
        log_.Erase(req.id);
      } else {
        sets_.Erase(req.id);
      }
      WriteFlash(req.id, req.size);
    }
    return true;
  }

  ++stats_.misses;
  stats_.bytes_missed += req.size;

  // Learned-admission feedback: a rejected object came back.
  uint64_t* rej = rejected_at_.Find(req.id);
  if (rej != nullptr) {
    admission_->OnRejectedReuse(req.id, clock_ - *rej);
    rejected_at_.Erase(req.id);
  }

  if (config_.dram_discipline == DramDiscipline::kSmallFifo && ghost_.Remove(req.id)) {
    // S -> G -> M path: a ghost hit goes straight to flash.
    WriteFlash(req.id, req.size);
    return false;
  }
  InsertDram(req.id, req.size);
  return false;
}

void LogStructuredFlashCache::ResizeFlash(uint64_t num_segments) {
  flash_evicted_.clear();
  const size_t before = flash_evicted_.size();
  log_.Resize(num_segments, &flash_evicted_);
  stats_.flash_evictions += flash_evicted_.size() - before;
}

void LogStructuredFlashCache::InsertDram(uint64_t id, uint32_t size) {
  if (size > config_.dram_capacity_bytes) {
    // Object larger than DRAM: consult admission directly.
    AdmissionCandidate c;
    c.id = id;
    c.size = size;
    c.now = clock_;
    if (admission_->Admit(c)) {
      WriteFlash(id, size);
    } else {
      RecordRejection(id);
    }
    return;
  }
  while (dram_occ_ + size > config_.dram_capacity_bytes && !dram_queue_.empty()) {
    EvictDramTail();
  }
  DramEntry* e = dram_.Emplace(id);
  e->id = id;
  e->size = size;
  e->reads = 0;
  e->insert_time = clock_;
  dram_queue_.PushFront(e);
  dram_occ_ += size;
}

void LogStructuredFlashCache::EvictDramTail() {
  DramEntry* tail = dram_queue_.Back();
  if (tail == nullptr) {
    return;
  }
  AdmissionCandidate c;
  c.id = tail->id;
  c.size = tail->size;
  c.dram_reads = tail->reads;
  c.dram_residency = clock_ - tail->insert_time;
  c.now = clock_;
  const uint64_t id = tail->id;
  const uint32_t size = tail->size;
  dram_queue_.Remove(tail);
  dram_occ_ -= size;
  dram_.Erase(id);

  if (admission_->Admit(c)) {
    WriteFlash(id, size);
  } else {
    if (config_.dram_discipline == DramDiscipline::kSmallFifo) {
      ghost_.Insert(id);
    }
    RecordRejection(id);
  }
}

void LogStructuredFlashCache::WriteFlash(uint64_t id, uint32_t size) {
  const size_t before = flash_evicted_.size();
  if (config_.small_object_threshold > 0 && size < config_.small_object_threshold) {
    sets_.Insert(id, size, &flash_evicted_);
  } else {
    log_.Insert(id, size, &flash_evicted_);
  }
  stats_.flash_evictions += flash_evicted_.size() - before;
}

void LogStructuredFlashCache::RecordRejection(uint64_t id) {
  if (rejected_at_.size() > rejected_bound_) {
    rejected_at_.Clear();  // cheap bound; feedback is best-effort
  }
  *rejected_at_.Emplace(id) = clock_;
}

LogFlashCacheStats SimulateLogFlashCache(const Trace& trace, const LogFlashCacheConfig& config,
                                         std::unique_ptr<AdmissionPolicy> admission) {
  LogStructuredFlashCache cache(config, std::move(admission));
  for (const Request& req : trace.requests()) {
    cache.Get(req);
  }
  return cache.stats();
}

std::string FormatLogFlashConfig(const LogFlashCacheConfig& config) {
  std::ostringstream out;
  out << "dram=" << config.dram_capacity_bytes
      << ",discipline=" << (config.dram_discipline == DramDiscipline::kLru ? "lru" : "smallfifo")
      << ",ghost=" << config.ghost_entries << ",segment=" << config.log.segment_bytes
      << ",segments=" << config.log.num_segments
      << ",ordering=" << (config.log.ordering == LogOrdering::kFifo ? "fifo" : "ripq")
      << ",readmit=" << (config.log.gc_readmit ? 1 : 0)
      << ",sections=" << config.log.ripq_sections
      << ",insert_prio=" << config.log.insert_priority
      << ",small=" << config.small_object_threshold
      << ",set_bytes=" << config.set_store.set_bytes << ",sets=" << config.set_store.num_sets;
  return out.str();
}

LogFlashCacheConfig ParseLogFlashConfig(const std::string& spec) {
  const Params p(spec);
  LogFlashCacheConfig config;
  config.dram_capacity_bytes = p.GetU64("dram", config.dram_capacity_bytes);
  const std::string discipline = p.GetString("discipline", "lru");
  if (discipline == "lru") {
    config.dram_discipline = DramDiscipline::kLru;
  } else if (discipline == "smallfifo") {
    config.dram_discipline = DramDiscipline::kSmallFifo;
  } else {
    throw std::invalid_argument("log-flash config: unknown discipline '" + discipline + "'");
  }
  config.ghost_entries = p.GetU64("ghost", config.ghost_entries);
  config.log.segment_bytes = p.GetU64("segment", config.log.segment_bytes);
  config.log.num_segments = p.GetU64("segments", config.log.num_segments);
  const std::string ordering = p.GetString("ordering", "fifo");
  if (ordering == "fifo") {
    config.log.ordering = LogOrdering::kFifo;
  } else if (ordering == "ripq") {
    config.log.ordering = LogOrdering::kRipq;
  } else {
    throw std::invalid_argument("log-flash config: unknown ordering '" + ordering + "'");
  }
  config.log.gc_readmit = p.GetBool("readmit", config.log.gc_readmit);
  config.log.ripq_sections = static_cast<uint32_t>(p.GetU64("sections", config.log.ripq_sections));
  config.log.insert_priority =
      static_cast<uint32_t>(p.GetU64("insert_prio", config.log.insert_priority));
  config.small_object_threshold = p.GetU64("small", config.small_object_threshold);
  config.set_store.set_bytes = p.GetU64("set_bytes", config.set_store.set_bytes);
  config.set_store.num_sets = p.GetU64("sets", config.set_store.num_sets);
  return config;
}

}  // namespace s3fifo

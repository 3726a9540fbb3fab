#include "src/flash/flash_cache.h"

#include <algorithm>

namespace s3fifo {
namespace {

uint64_t AutoGhostEntries(const FlashCacheConfig& config) {
  if (config.ghost_entries > 0) {
    return config.ghost_entries;
  }
  return std::max<uint64_t>(config.flash_capacity_bytes / 4096, 64);
}

}  // namespace

FlashCacheSim::FlashCacheSim(const FlashCacheConfig& config,
                             std::unique_ptr<AdmissionPolicy> admission)
    : config_(config), admission_(std::move(admission)), ghost_(AutoGhostEntries(config)) {}

bool FlashCacheSim::Get(const Request& req) {
  ++clock_;
  ++stats_.requests;
  stats_.bytes_requested += req.size;

  DramEntry* dram_e = dram_.Find(req.id);
  if (dram_e != nullptr) {
    ++stats_.dram_hits;
    ++dram_e->reads;
    if (config_.dram_discipline == DramDiscipline::kLru) {
      dram_queue_.MoveToFront(dram_e);
    }
    return true;
  }
  if (flash_.Contains(req.id)) {
    // Flash tier is FIFO: hits update no ordering state.
    ++stats_.flash_hits;
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
    InsertFlash(req.id, req.size);
    return false;
  }
  InsertDram(req.id, req.size);
  return false;
}

void FlashCacheSim::InsertDram(uint64_t id, uint32_t size) {
  if (size > config_.dram_capacity_bytes) {
    // Object larger than DRAM: consult admission directly.
    AdmissionCandidate c;
    c.id = id;
    c.size = size;
    c.now = clock_;
    if (admission_->Admit(c)) {
      InsertFlash(id, size);
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

void FlashCacheSim::EvictDramTail() {
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
    InsertFlash(id, size);
  } else {
    if (config_.dram_discipline == DramDiscipline::kSmallFifo) {
      ghost_.Insert(id);
    }
    RecordRejection(id);
  }
}

void FlashCacheSim::RecordRejection(uint64_t id) {
  if (rejected_at_.size() > 4 * AutoGhostEntries(config_) + 1024) {
    rejected_at_.Clear();  // cheap bound; feedback is best-effort
  }
  *rejected_at_.Emplace(id) = clock_;
}

void FlashCacheSim::InsertFlash(uint64_t id, uint32_t size) {
  if (size > config_.flash_capacity_bytes) {
    return;
  }
  while (flash_occ_ + size > config_.flash_capacity_bytes && !flash_queue_.empty()) {
    FlashEntry* victim = flash_queue_.Back();
    flash_occ_ -= victim->size;
    flash_queue_.Remove(victim);
    flash_.Erase(victim->id);
  }
  FlashEntry* e = flash_.Emplace(id);
  e->id = id;
  e->size = size;
  flash_queue_.PushFront(e);
  flash_occ_ += size;
  stats_.flash_write_bytes += size;
  ++stats_.flash_writes;
}

FlashCacheStats SimulateFlashCache(const Trace& trace, const FlashCacheConfig& config,
                                   std::unique_ptr<AdmissionPolicy> admission) {
  FlashCacheSim sim(config, std::move(admission));
  for (const Request& req : trace.requests()) {
    if (req.op == OpType::kDelete) {
      continue;
    }
    sim.Get(req);
  }
  return sim.stats();
}

}  // namespace s3fifo

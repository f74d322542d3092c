// Per-component undo log (paper SIV-C).
//
// A checkpoint in OSIRIS is not a state copy: it is the *empty undo log* at
// the top of the request processing loop. Every instrumented store appends
// (address, original bytes); restoring the checkpoint replays the entries in
// reverse. This favours the paper's observation that OS components do a
// small amount of work per message, so logs stay tiny and checkpoint
// creation (log reset) is O(1).
//
// Hot-path layout (Table V): entries and saved bytes share ONE arena
// allocation — entry headers grow from the front, saved old-bytes grow down
// from the back — so the common record() touches exactly one cache-warm
// buffer and never allocates. Data offsets are stored as distance from the
// arena's end, which survives regrowth without fixups. A duplicate-store
// filter skips re-logging an (addr, len) range already captured since the
// last checkpoint: undo logs are first-write-wins (rollback replays oldest
// last), so dropping repeat captures is semantically free and shrinks logs
// for loop-heavy handlers.
//
// The log lives in the Reliable Computing Base. The paper protects it with
// software fault isolation; we model that with canaries validated on every
// rollback (a corrupted log would indicate an RCB violation and panics the
// simulator, because the experiment would be meaningless).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "ckpt/page_store.hpp"

namespace osiris::ckpt {

struct UndoLogStats {
  std::uint64_t records = 0;        // total record() calls since boot
  std::uint64_t bytes_logged = 0;   // total bytes captured since boot
  std::uint64_t duplicate_skips = 0;  // records elided by the first-write filter
  std::size_t max_log_bytes = 0;    // high-water mark of live log size (Table VI)
  std::uint64_t rollbacks = 0;
  std::uint64_t partial_rollbacks = 0;  // rollback_to() calls (FOM park-time sub-rollback)
  std::uint64_t checkpoints = 0;    // reset() calls
  // --- page tier (DESIGN.md §17); all zero unless a PageStore is attached --
  std::uint64_t page_records = 0;       // CoW page snapshots captured
  std::uint64_t page_bytes_logged = 0;  // bytes of captured page pre-images
  std::uint64_t page_compactions = 0;   // incremental snapshot-retire steps
  std::uint64_t compacted_bytes = 0;    // snapshot bytes recycled by compaction
  std::uint64_t delta_restart_bytes = 0;  // restart bytes moved as dirty pages
  std::uint64_t full_copy_bytes = 0;      // what whole-image restarts would move
};

class UndoLog {
 public:
  UndoLog();

  UndoLog(const UndoLog&) = delete;
  UndoLog& operator=(const UndoLog&) = delete;

  /// Record the current contents of [addr, addr+len) for rollback.
  void record(void* addr, std::size_t len) {
    if (filter_hit(addr, len)) return;
    record_slow(addr, len);
  }

  /// Roll back all recorded writes (newest first), leaving the log empty.
  void rollback();

  /// A position in the log. Taking a mark before a speculative attempt and
  /// rolling back to it on abort undoes exactly that attempt's stores — the
  /// FOM executor uses this so a parked request owns zero live entries. With
  /// a page tier attached the position spans both tiers: the mark also pins
  /// the page-record count, and rollback_to() truncates both.
  struct Mark {
    std::size_t n_entries = 0;
    std::size_t data_bytes = 0;
    std::size_t page_records = 0;
  };

  [[nodiscard]] Mark mark() const noexcept {
    return Mark{n_entries_, data_bytes_, pages_ != nullptr ? pages_->record_count() : 0};
  }

  /// Roll back every write recorded after `m` (newest first), truncating the
  /// log back to the mark. The first-write filter epoch is bumped: stores the
  /// surviving prefix captured may be re-logged on retry, which is benign
  /// (rollback replays newest-first, so the oldest capture still wins).
  void rollback_to(const Mark& m);

  /// Discard the log: this *is* checkpoint creation at the top of the loop.
  void checkpoint();

  /// Attach the page tier: checkpoint/rollback/rollback_to/mark cascade into
  /// it, so every existing call site (seep::Window, the recovery engine, the
  /// FOM executor) composes across both tiers without change. The store does
  /// NOT own the PageStore — the component does, next to its regions.
  void attach_pages(PageStore* pages) noexcept { pages_ = pages; }
  [[nodiscard]] PageStore* pages() const noexcept { return pages_; }

  [[nodiscard]] bool empty() const noexcept {
    return n_entries_ == 0 && (pages_ == nullptr || pages_->clean());
  }
  [[nodiscard]] std::size_t entry_count() const noexcept { return n_entries_; }

  /// Live size of the log in bytes (entries + saved data), tracked
  /// incrementally — record() never recomputes it.
  [[nodiscard]] std::size_t live_bytes() const noexcept { return live_bytes_; }

  [[nodiscard]] const UndoLogStats& stats() const noexcept {
    if (pages_ != nullptr) {
      // Page-tier counters surface through UndoLogStats so every consumer
      // (collect_metrics, the campaign report, benches) sees one story.
      const PageStoreStats& ps = pages_->stats();
      stats_.page_records = ps.page_records;
      stats_.page_bytes_logged = ps.page_bytes_logged;
      stats_.page_compactions = ps.compactions;
      stats_.compacted_bytes = ps.compacted_bytes;
      stats_.delta_restart_bytes = ps.delta_restart_bytes;
      stats_.full_copy_bytes = ps.full_copy_bytes;
    }
    return stats_;
  }

  /// SFI-style integrity check of the log's guard canaries.
  [[nodiscard]] bool integrity_ok() const noexcept;

  /// Trace attribution: the owning component's endpoint, or -1 for logs used
  /// standalone (tests, microbenchmarks), whose events are not recorded.
  void set_trace_id(std::int32_t comp) noexcept { trace_id_ = comp; }
  [[nodiscard]] std::int32_t trace_id() const noexcept { return trace_id_; }

 private:
  struct Entry {
    void* addr;
    std::uint32_t len;
    std::uint32_t end_off;  // distance from the arena end to the saved bytes
  };

  // Exact first-write filter: an open-addressed, linearly-probed table of
  // the (addr, len) ranges captured since the last checkpoint. A match is
  // exact (addr, len) only — overlapping-but-different ranges are still
  // logged. Exactness is a determinism requirement, not just a space trade:
  // a lossy cache's outcome would depend on which address *values* collide,
  // and heap layout varies run to run, whereas entry counts (and therefore
  // the event trace) must depend only on the logical store sequence. Epoch
  // tagging makes clearing at checkpoint()/rollback() O(1); the table
  // doubles once half full, so probe chains stay short and every lookup
  // terminates at a free (stale-epoch) slot.
  struct FilterSlot {
    void* addr = nullptr;
    std::uint32_t len = 0;
    std::uint32_t epoch = 0;
  };
  static constexpr std::size_t kFilterSlots = 256;  // initial size, power of two

  [[nodiscard]] std::size_t filter_index(void* addr) const noexcept {
    const auto h = reinterpret_cast<std::uintptr_t>(addr);
    // Mix the low bits a little: recoverable state is word-aligned.
    return (h ^ (h >> 7)) & (filter_cap_ - 1);
  }

  bool filter_hit(void* addr, std::size_t len) {
    for (std::size_t i = filter_index(addr);; i = (i + 1) & (filter_cap_ - 1)) {
      const FilterSlot& slot = filter_[i];
      if (slot.epoch != filter_epoch_) return false;  // free slot: not captured
      if (slot.addr == addr && slot.len == static_cast<std::uint32_t>(len)) {
        ++stats_.duplicate_skips;
        return true;
      }
    }
  }

  void bump_epoch() noexcept {
    filter_live_ = 0;
    if (++filter_epoch_ == 0) {  // wrapped: stale slots could match epoch 0
      for (std::size_t i = 0; i < filter_cap_; ++i) filter_[i] = FilterSlot{};
      filter_epoch_ = 1;
    }
  }

  void filter_insert(void* addr, std::size_t len);
  void grow_filter();
  void record_slow(void* addr, std::size_t len);
  void grow(std::size_t need_entry_bytes, std::size_t need_data_bytes);

  [[nodiscard]] Entry* entries() noexcept { return reinterpret_cast<Entry*>(arena_.get()); }
  [[nodiscard]] const Entry* entries() const noexcept {
    return reinterpret_cast<const Entry*>(arena_.get());
  }

  static constexpr std::uint64_t kCanary = 0x05151515'0B51B150ULL;

  std::uint64_t canary_head_;
  std::unique_ptr<std::byte[]> arena_;
  std::size_t cap_ = 0;         // arena size in bytes
  std::size_t n_entries_ = 0;   // Entry headers at the arena front
  std::size_t data_bytes_ = 0;  // saved bytes packed at the arena back
  std::size_t live_bytes_ = 0;  // == n_entries_ * sizeof(Entry) + data_bytes_
  std::uint32_t filter_epoch_ = 1;
  std::int32_t trace_id_ = -1;
  PageStore* pages_ = nullptr;  // the second tier; nullptr = arena-only world
  std::unique_ptr<FilterSlot[]> filter_;
  std::size_t filter_cap_ = kFilterSlots;
  std::size_t filter_live_ = 0;  // inserts since the last epoch bump
  mutable UndoLogStats stats_;  // page-tier fields refreshed in stats()
  std::uint64_t canary_tail_;
};

}  // namespace osiris::ckpt

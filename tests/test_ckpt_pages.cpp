// Unit + property tests: the page-granular checkpoint tier (DESIGN.md §17) —
// PageStore epoch/compaction semantics, PagedTable allocator recovery, the
// two-tier mark/rollback composition, the satellite duplicate-filter
// regression, and randomized rollback equivalence between the arena undo log
// and the page tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <random>
#include <vector>

#include "ckpt/context.hpp"
#include "ckpt/page_store.hpp"
#include "ckpt/paged_table.hpp"
#include "ckpt/undo_log.hpp"
#include "core/metrics.hpp"
#include "fi/registry.hpp"
#include "os/instance.hpp"
#include "seep/window.hpp"
#include "workload/suite.hpp"

using namespace osiris;

namespace {

constexpr std::size_t kPage = 64;  // small pages keep the unit tests readable

ckpt::PagesConfig tiny_pages() {
  ckpt::PagesConfig cfg;
  cfg.enabled = true;
  cfg.page_bytes = kPage;
  cfg.compact_batch = 2;
  return cfg;
}

/// A page-multiple scratch region filled with a recognizable pattern.
struct Scratch {
  explicit Scratch(std::size_t pages) : bytes(pages * kPage) {
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      bytes[i] = static_cast<std::byte>(i * 7 + 3);
    }
  }
  std::byte* data() { return bytes.data(); }
  [[nodiscard]] std::size_t size() const { return bytes.size(); }
  std::vector<std::byte> bytes;
};

struct ScopedCtx {
  explicit ScopedCtx(ckpt::Mode mode) : ctx(mode), scope(&ctx) {}
  ckpt::Context ctx;
  ckpt::Context::Scope scope;
};

struct FiGuard {
  FiGuard() {
    fi::Registry::instance().disarm();
    fi::Registry::instance().reset_counts();
  }
  ~FiGuard() { fi::Registry::instance().disarm(); }
};

}  // namespace

TEST(PageStore, SnapshotAndRollback) {
  ckpt::PageStore ps(tiny_pages());
  Scratch s(4);
  ps.register_region(s.data(), s.size());
  ASSERT_TRUE(ps.covers(s.data() + 10));
  EXPECT_FALSE(ps.covers(&ps));

  const std::vector<std::byte> before = s.bytes;
  ps.on_store(s.data() + 10, 4, /*log=*/true);
  std::memset(s.data() + 10, 0xEE, 4);
  EXPECT_EQ(ps.record_count(), 1u);
  ps.rollback();
  EXPECT_EQ(s.bytes, before);
  EXPECT_TRUE(ps.clean());
  EXPECT_EQ(ps.stats().page_rollbacks, 1u);
}

TEST(PageStore, DuplicateStoreSkippedPerEpoch) {
  // The per-epoch dirty bitmap is the page-tier analogue of the undo log's
  // first-write filter: one snapshot per page per epoch, later stores free.
  ckpt::PageStore ps(tiny_pages());
  Scratch s(2);
  ps.register_region(s.data(), s.size());
  const std::vector<std::byte> before = s.bytes;

  ps.on_store(s.data(), 8, true);
  std::memset(s.data(), 1, 8);
  ps.on_store(s.data() + 16, 8, true);  // same page: no second record
  std::memset(s.data() + 16, 2, 8);
  EXPECT_EQ(ps.record_count(), 1u);
  EXPECT_EQ(ps.stats().page_duplicate_skips, 1u);
  ps.rollback();
  EXPECT_EQ(s.bytes, before);  // BOTH stores undone by the one snapshot
}

TEST(PageStore, StoreSpanningPagesCapturesEach) {
  ckpt::PageStore ps(tiny_pages());
  Scratch s(4);
  ps.register_region(s.data(), s.size());
  const std::vector<std::byte> before = s.bytes;
  // 8 bytes straddling the page 1 / page 2 boundary.
  ps.on_store(s.data() + kPage * 2 - 4, 8, true);
  std::memset(s.data() + kPage * 2 - 4, 0xAB, 8);
  EXPECT_EQ(ps.record_count(), 2u);
  ps.rollback();
  EXPECT_EQ(s.bytes, before);
}

TEST(PageStore, CheckpointRetiresSnapshotsIncrementally) {
  // checkpoint() drops the epoch O(dirty pages) and runs ONE compaction
  // step; the retired backlog drains over subsequent checkpoints instead of
  // stalling any single one.
  ckpt::PagesConfig cfg = tiny_pages();
  cfg.compact_batch = 1;
  ckpt::PageStore ps(cfg);
  Scratch s(4);
  ps.register_region(s.data(), s.size());
  for (std::size_t p = 0; p < 3; ++p) ps.on_store(s.data() + p * kPage, 1, true);
  EXPECT_EQ(ps.record_count(), 3u);
  ps.checkpoint();
  EXPECT_TRUE(ps.clean());
  EXPECT_EQ(ps.stats().compactions, 1u);  // one batch moved, backlog remains
  ps.checkpoint();                        // empty epoch, but compaction continues
  ps.checkpoint();
  EXPECT_EQ(ps.stats().compactions, 3u);
  EXPECT_EQ(ps.stats().compacted_bytes, 3 * kPage);
  // A new epoch re-captures the same page (filter reset at checkpoint) and
  // reuses a pooled buffer rather than growing the footprint.
  const std::size_t resident = ps.resident_bytes();
  ps.on_store(s.data(), 1, true);
  EXPECT_EQ(ps.record_count(), 1u);
  EXPECT_EQ(ps.resident_bytes(), resident);
}

TEST(PageStore, WindowClosedStoreMarksTransferOnly) {
  // log=false (window closed, kWindowOnly) must not snapshot — the undo tier
  // ignores those stores — but the clone delta MUST still see them.
  ckpt::PageStore ps(tiny_pages());
  Scratch s(2);
  ps.register_region(s.data(), s.size());
  // Drain the registration-time transfer state first.
  ps.sync_transfer_dirty([](std::size_t, const std::byte*, std::size_t) {});

  ps.on_store(s.data() + kPage, 4, /*log=*/false);
  std::memset(s.data() + kPage, 0x5A, 4);
  EXPECT_EQ(ps.record_count(), 0u);
  EXPECT_EQ(ps.stats().page_records, 0u);
  std::size_t synced = 0;
  ps.sync_transfer_dirty(
      [&](std::size_t off, const std::byte* src, std::size_t len) {
        EXPECT_EQ(off, kPage);
        EXPECT_EQ(len, kPage);
        EXPECT_EQ(src[0], static_cast<std::byte>(0x5A));
        synced += len;
      });
  EXPECT_EQ(synced, kPage);
}

TEST(PageStore, SyncTransferDirtyClearsBits) {
  ckpt::PageStore ps(tiny_pages());
  Scratch s(3);
  ps.register_region(s.data(), s.size());
  ps.on_store(s.data(), 1, true);
  ps.on_store(s.data() + 2 * kPage, 1, true);
  std::size_t first = ps.sync_transfer_dirty([](std::size_t, const std::byte*, std::size_t) {});
  EXPECT_EQ(first, 2 * kPage);
  // Second sync with no intervening stores: nothing to move.
  EXPECT_EQ(ps.sync_transfer_dirty([](std::size_t, const std::byte*, std::size_t) {}), 0u);
}

TEST(PageStore, RollbackRemarksTransferDirty) {
  // Rollback rewrites live bytes away from what the clone saw — the restored
  // pages must be re-marked or the next delta restart ships a stale clone.
  ckpt::PageStore ps(tiny_pages());
  Scratch s(2);
  ps.register_region(s.data(), s.size());
  ps.sync_transfer_dirty([](std::size_t, const std::byte*, std::size_t) {});

  ps.on_store(s.data(), 4, true);
  std::memset(s.data(), 0x11, 4);
  ps.sync_transfer_dirty([](std::size_t, const std::byte*, std::size_t) {});  // clone up to date
  ps.rollback();  // live bytes now differ from the clone again
  EXPECT_EQ(ps.sync_transfer_dirty([](std::size_t, const std::byte*, std::size_t) {}), kPage);
}

TEST(PageStore, MarkAllTransferDirtyCoversWholeSpace) {
  ckpt::PageStore ps(tiny_pages());
  Scratch a(2);
  Scratch b(3);
  ps.register_region(a.data(), a.size());
  ps.register_region(b.data(), b.size());
  ps.sync_transfer_dirty([](std::size_t, const std::byte*, std::size_t) {});
  ps.mark_all_transfer_dirty();
  EXPECT_EQ(ps.sync_transfer_dirty([](std::size_t, const std::byte*, std::size_t) {}),
            ps.region_bytes());
  EXPECT_EQ(ps.region_bytes(), a.size() + b.size());
}

TEST(PageStore, MultiRegionSyncUsesConcatenatedOffsets) {
  // The engine lays its aux image out as the concatenation of registered
  // regions; sync offsets must address that layout, not raw pointers.
  ckpt::PageStore ps(tiny_pages());
  Scratch a(2);
  Scratch b(2);
  ps.register_region(a.data(), a.size());
  ps.register_region(b.data(), b.size());
  ps.sync_transfer_dirty([](std::size_t, const std::byte*, std::size_t) {});

  ps.on_store(b.data() + kPage, 1, true);
  std::vector<std::size_t> offs;
  ps.sync_transfer_dirty(
      [&](std::size_t off, const std::byte*, std::size_t) { offs.push_back(off); });
  ASSERT_EQ(offs.size(), 1u);
  EXPECT_EQ(offs[0], a.size() + kPage);  // region b's page 1, after all of a
}

TEST(PageStore, IntegrityCanaryOk) {
  ckpt::PageStore ps(tiny_pages());
  EXPECT_TRUE(ps.integrity_ok());
}

// --- the satellite-2 regression -------------------------------------------

TEST(PageStore, RollbackToClearsTruncatedDirtyBits) {
  // A partial rollback truncates page records back to a mark. If the
  // truncated pages' epoch-dirty bits survived, a retried store to the same
  // page would be filtered as a duplicate — no fresh snapshot — and the
  // eventual FULL rollback would silently skip the page: state corruption.
  ckpt::PageStore ps(tiny_pages());
  Scratch s(2);
  ps.register_region(s.data(), s.size());
  const std::vector<std::byte> checkpointed = s.bytes;

  const std::size_t mark = ps.record_count();  // 0: top of the attempt
  ps.on_store(s.data(), 4, true);
  std::memset(s.data(), 0xB1, 4);              // attempt 1 mutates page 0
  ps.rollback_to(mark);                        // FOM-style retry: attempt undone
  EXPECT_EQ(s.bytes, checkpointed);

  ps.on_store(s.data(), 4, true);              // attempt 2 touches the SAME page
  std::memset(s.data(), 0xB2, 4);
  EXPECT_EQ(ps.record_count(), 1u);            // re-captured, not filtered
  ps.rollback();                               // crash: everything must undo
  EXPECT_EQ(s.bytes, checkpointed);            // corrupts if the bit leaked
}

TEST(PageStore, RollbackToKeepsSurvivingRecordsFiltered) {
  // The converse obligation: bits of records OLDER than the mark must stay
  // set, or a post-retry store would double-capture the newer value and a
  // full rollback would restore the wrong (mid-window) bytes.
  ckpt::PageStore ps(tiny_pages());
  Scratch s(2);
  ps.register_region(s.data(), s.size());
  const std::vector<std::byte> checkpointed = s.bytes;

  ps.on_store(s.data(), 4, true);              // pre-mark store to page 0
  std::memset(s.data(), 0xC1, 4);
  const std::size_t mark = ps.record_count();  // 1
  ps.on_store(s.data() + kPage, 4, true);      // post-mark store to page 1
  std::memset(s.data() + kPage, 0xC2, 4);
  ps.rollback_to(mark);

  ps.on_store(s.data(), 4, true);              // page 0 is still first-write-covered
  std::memset(s.data(), 0xC3, 4);
  EXPECT_EQ(ps.record_count(), 1u);            // no double capture
  EXPECT_GE(ps.stats().page_duplicate_skips, 1u);
  ps.rollback();
  EXPECT_EQ(s.bytes, checkpointed);            // page-0 snapshot is the OLDEST value
}

// --- two-tier composition through UndoLog ----------------------------------

TEST(UndoLogPages, MarkSpansBothTiers) {
  ckpt::UndoLog log;
  ckpt::PageStore ps(tiny_pages());
  Scratch s(2);
  ps.register_region(s.data(), s.size());
  log.attach_pages(&ps);

  std::uint64_t small = 1;
  log.record(&small, sizeof small);
  small = 2;
  ps.on_store(s.data(), 4, true);
  std::memset(s.data(), 0xD1, 4);
  const std::vector<std::byte> at_mark = s.bytes;

  const ckpt::UndoLog::Mark m = log.mark();
  EXPECT_EQ(m.page_records, 1u);
  log.record(&small, sizeof small);  // filtered duplicate in the arena tier
  ps.on_store(s.data() + kPage, 4, true);
  std::memset(s.data() + kPage, 0xD2, 4);

  log.rollback_to(m);  // undoes ONLY the post-mark page
  EXPECT_EQ(s.bytes, at_mark);
  EXPECT_EQ(small, 2u);

  log.rollback();  // full: both tiers back to the checkpoint
  EXPECT_EQ(small, 1u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(s.bytes[i], static_cast<std::byte>(i * 7 + 3));
  }
  EXPECT_TRUE(log.empty());
}

TEST(UndoLogPages, EmptyAndStatsMergePageTier) {
  ckpt::UndoLog log;
  ckpt::PageStore ps(tiny_pages());
  Scratch s(1);
  ps.register_region(s.data(), s.size());
  log.attach_pages(&ps);
  EXPECT_TRUE(log.empty());

  ps.on_store(s.data(), 1, true);
  EXPECT_FALSE(log.empty());  // dirty pages alone make the log non-empty
  log.checkpoint();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.stats().page_records, 1u);
  EXPECT_GE(log.stats().page_bytes_logged, kPage);
}

// --- PagedTable -------------------------------------------------------------

TEST(PagedTable, RegionIsPageMultiple) {
  ckpt::PagedTable<std::uint64_t> t(5, kPage);
  EXPECT_EQ(t.region_bytes() % kPage, 0u);
  EXPECT_GE(t.region_bytes(), 5 * sizeof(std::uint64_t));
  EXPECT_EQ(t.capacity(), 5u);
  EXPECT_EQ(t.in_use_count(), 0u);
}

TEST(PagedTable, AllocFreeFindMirrorsTable) {
  ScopedCtx s(ckpt::Mode::kOff);
  ckpt::PagedTable<int> t(4, kPage);
  const std::size_t a = t.alloc();
  const std::size_t b = t.alloc();
  ASSERT_NE(a, decltype(t)::npos);
  ASSERT_NE(b, decltype(t)::npos);
  t.mutate(a) = 10;
  t.mutate(b) = 20;
  EXPECT_EQ(t.in_use_count(), 2u);
  EXPECT_EQ(t.find([](int v) { return v == 20; }), b);
  t.free(a);
  EXPECT_EQ(t.in_use_count(), 1u);
  EXPECT_EQ(t.find([](int v) { return v == 10; }), decltype(t)::npos);
  EXPECT_EQ(t.alloc(), a);   // LIFO free list, like Table
  EXPECT_EQ(t.at(a), 0);     // value-initialized on reuse
}

TEST(PagedTable, AllocatorRollsBackThroughArenaTier) {
  // With no PageStore attached, PagedTable stores fall through to the arena
  // undo log — the flag-off configuration must recover identically.
  ScopedCtx s(ckpt::Mode::kAlways);
  ckpt::PagedTable<int> t(4, kPage);
  const std::size_t a = t.alloc();
  t.mutate(a) = 1;
  s.ctx.log().checkpoint();
  const std::size_t b = t.alloc();
  t.mutate(b) = 2;
  t.free(a);
  s.ctx.log().rollback();
  EXPECT_TRUE(t.in_use(a));
  EXPECT_FALSE(t.in_use(b));
  EXPECT_EQ(t.at(a), 1);
  EXPECT_EQ(t.in_use_count(), 1u);
}

TEST(PagedTable, AllocatorRollsBackThroughPageTier) {
  ScopedCtx s(ckpt::Mode::kAlways);
  ckpt::PageStore ps(tiny_pages());
  ckpt::PagedTable<int> t(4, kPage);
  ps.register_region(t.region_data(), t.region_bytes());
  s.ctx.set_page_store(&ps);

  const std::size_t a = t.alloc();
  t.mutate(a) = 1;
  s.ctx.log().checkpoint();
  const std::size_t b = t.alloc();
  t.mutate(b) = 2;
  t.free(a);
  EXPECT_GT(ps.record_count(), 0u);  // the stores actually routed here
  EXPECT_EQ(s.ctx.log().entry_count(), 0u);
  s.ctx.log().rollback();
  EXPECT_TRUE(t.in_use(a));
  EXPECT_FALSE(t.in_use(b));
  EXPECT_EQ(t.at(a), 1);
  EXPECT_EQ(t.alloc(), b);  // free list replays identically post-rollback
}

TEST(PagedTable, PutRingAndUserWordRollBack) {
  ScopedCtx s(ckpt::Mode::kAlways);
  ckpt::PageStore ps(tiny_pages());
  ckpt::PagedTable<std::uint64_t> t(4, kPage);
  ps.register_region(t.region_data(), t.region_bytes());
  s.ctx.set_page_store(&ps);

  t.put(0) = 111;
  t.set_user_word(1);
  s.ctx.log().checkpoint();
  t.put(0) = 222;  // ring overwrite of a used slot
  t.put(1) = 333;
  t.set_user_word(3);
  s.ctx.log().rollback();
  EXPECT_EQ(t.at(0), 111u);
  EXPECT_FALSE(t.in_use(1));
  EXPECT_EQ(t.user_word(), 1u);
  EXPECT_EQ(t.in_use_count(), 1u);
}

// --- randomized rollback equivalence ---------------------------------------

namespace {

/// Apply a deterministic pseudo-random store/checkpoint/retry script to
/// `buf` under the ACTIVE context, mutating through Context::log_write the
/// way instrumented wrappers do. The script depends only on (seed, steps),
/// never on which tier the context routes to.
///
/// Retry blocks follow the FOM executor's contract (DESIGN.md §16/§17): the
/// stores a rollback_to undoes are first-writes since its mark. Both tiers'
/// partial rollback is first-write-approximate — a post-mark store aliasing
/// pre-mark-dirty state (an exact range for the arena, a page for the page
/// tier) is filtered and survives the retry — so the script keeps attempt
/// stores (upper half) disjoint from steady-state stores (lower half), the
/// way VFS keeps FOM attempts off the prologue-written journal pages. Full
/// rollback is exact for arbitrary sequences; the attempt confinement only
/// matters for the mid-script rollback_to steps.
void run_script(ckpt::Context& ctx, std::byte* buf, std::size_t len, std::uint64_t seed,
                int steps) {
  std::mt19937_64 rng(seed);
  const std::size_t half = len / 2;
  for (int i = 0; i < steps; ++i) {
    const std::uint64_t op = rng() % 10;
    if (op == 0) {
      ctx.log().checkpoint();
    } else if (op < 8) {
      // Steady-state mutation in the prologue half.
      const std::size_t off = rng() % half;
      const std::size_t n = 1 + rng() % std::min<std::size_t>(half - off, 3 * kPage);
      const std::uint8_t fill = static_cast<std::uint8_t>(rng());
      ckpt::Context::log_write(buf + off, n);
      std::memset(buf + off, fill, n);
    } else {
      // FOM-style attempt: mark, partial work in the attempt half, park
      // (rolling the attempt back to its mark).
      const ckpt::UndoLog::Mark m = ctx.log().mark();
      const int stores = 1 + static_cast<int>(rng() % 4);
      for (int k = 0; k < stores; ++k) {
        const std::size_t off = half + rng() % half;
        const std::size_t n = 1 + rng() % std::min<std::size_t>(len - off, kPage);
        const std::uint8_t fill = static_cast<std::uint8_t>(rng());
        ckpt::Context::log_write(buf + off, n);
        std::memset(buf + off, fill, n);
      }
      ctx.log().rollback_to(m);
    }
  }
  ctx.log().rollback();
}

}  // namespace

TEST(PagesProperty, RollbackEquivalenceArenaVsPageTier) {
  // The tentpole's correctness bar: the SAME logical store sequence, rolled
  // back through the per-store arena log and through the page tier, must
  // leave byte-identical state.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Scratch arena_buf(8);
    Scratch paged_buf(8);
    ASSERT_EQ(arena_buf.bytes, paged_buf.bytes);

    {
      ScopedCtx s(ckpt::Mode::kAlways);
      run_script(s.ctx, arena_buf.data(), arena_buf.size(), seed, 300);
    }
    {
      ScopedCtx s(ckpt::Mode::kAlways);
      ckpt::PageStore ps(tiny_pages());
      ps.register_region(paged_buf.data(), paged_buf.size());
      s.ctx.set_page_store(&ps);
      run_script(s.ctx, paged_buf.data(), paged_buf.size(), seed, 300);
      EXPECT_TRUE(ps.integrity_ok());
    }
    EXPECT_EQ(arena_buf.bytes, paged_buf.bytes) << "seed " << seed;
  }
}

TEST(PagesProperty, RollbackEquivalenceMixedTiers) {
  // Half the address space registered with the PageStore, half arena-logged:
  // one script's stores split across the tiers, and composed rollback must
  // still match the pure-arena reference byte for byte.
  for (std::uint64_t seed = 21; seed <= 26; ++seed) {
    Scratch ref_buf(8);
    Scratch mix_buf(8);

    {
      ScopedCtx s(ckpt::Mode::kAlways);
      run_script(s.ctx, ref_buf.data(), ref_buf.size(), seed, 300);
    }
    {
      ScopedCtx s(ckpt::Mode::kAlways);
      ckpt::PageStore ps(tiny_pages());
      // Register only the second half; the first half takes the arena path.
      ps.register_region(mix_buf.data() + mix_buf.size() / 2, mix_buf.size() / 2);
      s.ctx.set_page_store(&ps);
      run_script(s.ctx, mix_buf.data(), mix_buf.size(), seed, 300);
    }
    EXPECT_EQ(ref_buf.bytes, mix_buf.bytes) << "seed " << seed;
  }
}

TEST(PagesProperty, WindowOnlyModeEquivalence) {
  // kWindowOnly with the window CLOSED: neither tier may snapshot (rollback
  // keeps the mutated bytes), but the page tier must still track transfer
  // dirt. Equivalence here means both tiers agree that nothing is undone.
  Scratch arena_buf(2);
  Scratch paged_buf(2);
  {
    ScopedCtx s(ckpt::Mode::kWindowOnly);
    s.ctx.set_window_open(false);
    ckpt::Context::log_write(arena_buf.data(), 8);
    std::memset(arena_buf.data(), 0x77, 8);
    s.ctx.log().rollback();
  }
  {
    ScopedCtx s(ckpt::Mode::kWindowOnly);
    ckpt::PageStore ps(tiny_pages());
    ps.register_region(paged_buf.data(), paged_buf.size());
    s.ctx.set_page_store(&ps);
    ps.sync_transfer_dirty([](std::size_t, const std::byte*, std::size_t) {});
    s.ctx.set_window_open(false);
    ckpt::Context::log_write(paged_buf.data(), 8);
    std::memset(paged_buf.data(), 0x77, 8);
    s.ctx.log().rollback();
    // The closed-window store still reaches the clone on the next sync.
    EXPECT_EQ(ps.sync_transfer_dirty([](std::size_t, const std::byte*, std::size_t) {}), kPage);
  }
  EXPECT_EQ(arena_buf.bytes, paged_buf.bytes);
}

namespace {

/// The FOM executor's window choreography (fom.hpp) against a given context:
/// attempt, park (rolling back to the mark), resume with a fresh window,
/// complete — then crash. Returns nothing; the caller byte-compares state.
void fom_mid_epoch_script(ckpt::Context& ctx, seep::Window& win, std::byte* buf) {
  win.open(1);
  ckpt::Context::log_write(buf, 8);
  std::memset(buf, 0xA1, 8);                    // durable pre-attempt mutation
  const ckpt::UndoLog::Mark m = ctx.log().mark();
  ckpt::Context::log_write(buf + kPage, 8);     // the attempt's partial work
  std::memset(buf + kPage, 0xA2, 8);
  ctx.log().rollback_to(m);                     // park: attempt undone exactly
  win.fom_park();

  win.fom_resume(1);                            // fresh window, fresh epoch
  ckpt::Context::log_write(buf + kPage, 8);
  std::memset(buf + kPage, 0xA3, 8);            // the retry succeeds
  ctx.log().rollback();                         // crash mid-retry
  win.end_of_request();
}

}  // namespace

TEST(PagesProperty, FomParkResumeMidEpochEquivalence) {
  // Park/resume splits one request across two epochs with a mid-epoch
  // partial rollback — the exact sequence satellite 2 exists for. Both tiers
  // must agree: pre-park durable work survives (it belongs to the epoch the
  // resume checkpointed), the crashed retry does not.
  Scratch arena_buf(4);
  Scratch paged_buf(4);
  {
    ScopedCtx s(ckpt::Mode::kWindowOnly);
    seep::Window win(seep::Policy::kEnhanced, s.ctx);
    fom_mid_epoch_script(s.ctx, win, arena_buf.data());
  }
  {
    ScopedCtx s(ckpt::Mode::kWindowOnly);
    ckpt::PageStore ps(tiny_pages());
    ps.register_region(paged_buf.data(), paged_buf.size());
    s.ctx.set_page_store(&ps);
    seep::Window win(seep::Policy::kEnhanced, s.ctx);
    fom_mid_epoch_script(s.ctx, win, paged_buf.data());
    EXPECT_TRUE(ps.integrity_ok());
  }
  EXPECT_EQ(arena_buf.bytes, paged_buf.bytes);
  // And the semantics themselves: 0xA1 committed by the resume checkpoint,
  // the 0xA3 retry rolled back to the resume point.
  EXPECT_EQ(arena_buf.bytes[0], static_cast<std::byte>(0xA1));
  EXPECT_EQ(arena_buf.bytes[kPage], static_cast<std::byte>(kPage * 7 + 3));
}

// --- full-stack integration --------------------------------------------------

namespace {

/// Publish/retrieve churn against DS; returns the retrieved values so runs
/// under different checkpoint configurations can be compared.
std::vector<std::uint64_t> run_blob_workload(const os::OsConfig& cfg) {
  FiGuard guard;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  std::vector<std::uint64_t> got;
  inst.run([&got](os::ISys& sys) {
    for (int round = 0; round < 3; ++round) {
      sys.ds_publish("blob.alpha", 100 + round);
      sys.ds_publish("blob.beta", 200 + round);
      if (round == 1) sys.ds_delete("blob.beta");
    }
    std::uint64_t v = 0;
    sys.ds_retrieve("blob.alpha", &v);
    got.push_back(v);
    got.push_back(sys.ds_retrieve("blob.beta", &v) == kernel::OK ? v : ~0ULL);
  });
  return got;
}

os::OsConfig large_state_cfg(bool pages_on) {
  os::OsConfig cfg;
  cfg.ds_blob_slots = 8;
  cfg.vfs_journal_slots = 32;
  cfg.ckpt_pages.enabled = pages_on;
  return cfg;
}

}  // namespace

TEST(PagesIntegration, BlobWorkloadIdenticalAcrossTiers) {
  const std::vector<std::uint64_t> off = run_blob_workload(large_state_cfg(false));
  const std::vector<std::uint64_t> on = run_blob_workload(large_state_cfg(true));
  EXPECT_EQ(off, on);
}

TEST(PagesIntegration, PageTierSurfacesInMetrics) {
  FiGuard guard;
  os::OsInstance inst(large_state_cfg(true));
  workload::register_suite_programs(inst.programs());
  inst.boot();
  inst.run([](os::ISys& sys) {
    for (int i = 0; i < 4; ++i) sys.ds_publish("metrics.key", i);
  });
  const core::SystemMetrics m = core::collect_metrics(inst);
  bool saw_ds_pages = false;
  for (const core::ComponentMetrics& c : m.components) {
    if (c.name == "ds") {
      saw_ds_pages = true;
      EXPECT_GT(c.aux_bytes, 0u);
      EXPECT_GT(c.page_records, 0u);
      EXPECT_GT(c.page_bytes_logged, 0u);
    }
  }
  EXPECT_TRUE(saw_ds_pages);
  EXPECT_NE(m.report().find("pages[ds]"), std::string::npos);
}

TEST(PagesIntegration, DefaultConfigReportsNoPageTier) {
  // Flag-off: no aux regions, no page records, and the report text carries
  // no pages[] line — the byte-stability the golden traces depend on.
  FiGuard guard;
  os::OsConfig cfg;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  inst.run([](os::ISys& sys) { sys.ds_publish("plain.key", 1); });
  const core::SystemMetrics m = core::collect_metrics(inst);
  for (const core::ComponentMetrics& c : m.components) {
    EXPECT_EQ(c.aux_bytes, 0u);
    EXPECT_EQ(c.page_records, 0u);
  }
  EXPECT_EQ(m.report().find("pages["), std::string::npos);
}

namespace {

struct FaultedRun {
  std::vector<std::uint64_t> got;       // client-observable post-crash values
  std::uint32_t recoveries = 0;
  std::uint64_t full_copy_bytes = 0;    // restart accounting (pages on only)
  std::uint64_t delta_restart_bytes = 0;
};

/// Arm a mid-publish DS crash (trigger chosen from a profiling pass; the fi
/// trigger counts absolute hits, so boot-time hits are snapshotted out) and
/// run the blob workload through recovery.
FaultedRun run_faulted_blob_workload(const os::OsConfig& cfg) {
  fi::Registry& reg = fi::Registry::instance();
  reg.disarm();
  reg.reset_counts();
  const auto workload = [](os::ISys& sys) {
    for (int i = 0; i < 6; ++i) sys.ds_publish("crash.key", i);
  };
  std::map<const fi::Site*, std::uint64_t> boot_hits;
  {
    os::OsInstance inst(cfg);
    workload::register_suite_programs(inst.programs());
    inst.boot();
    for (fi::Site* s : reg.sites()) boot_hits[s] = s->hits();
    inst.run(workload);
  }
  fi::Site* best = nullptr;
  std::uint64_t best_delta = 0;
  for (fi::Site* s : reg.sites()) {
    const std::uint64_t d = s->hits() - boot_hits[s];
    if (std::strcmp(s->tag, "ds") == 0 && d > best_delta) {
      best = s;
      best_delta = d;
    }
  }
  EXPECT_NE(best, nullptr);
  FaultedRun out;
  if (best == nullptr) return out;
  const std::uint64_t trigger = boot_hits[best] + best_delta / 2 + 1;

  reg.reset_counts();
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  reg.arm(best, fi::FaultType::kNullDeref, trigger);
  inst.run([&](os::ISys& sys) {
    workload(sys);
    std::uint64_t v = 0;
    if (sys.ds_retrieve("crash.key", &v) == kernel::OK) out.got.push_back(v);
  });
  reg.disarm();
  out.recoveries = inst.engine().recoveries_of(kernel::kDsEp);
  const core::SystemMetrics m = core::collect_metrics(inst);
  for (const core::ComponentMetrics& c : m.components) {
    if (c.name == "ds") {
      out.full_copy_bytes = c.full_copy_bytes;
      out.delta_restart_bytes = c.delta_restart_bytes;
    }
  }
  return out;
}

}  // namespace

TEST(PagesIntegration, CrashRecoveryEquivalentAcrossTiers) {
  // The same injected crash, recovered through the arena log and through the
  // page tier, must leave clients with identical observable state. This is
  // the end-to-end form of the rollback-equivalence property: restart-phase
  // delta transfer + page rollback vs full copy + per-store undo.
  const FaultedRun off = run_faulted_blob_workload(large_state_cfg(false));
  const FaultedRun on = run_faulted_blob_workload(large_state_cfg(true));
  EXPECT_EQ(off.got, on.got);
  EXPECT_EQ(off.recoveries, on.recoveries);
  EXPECT_GE(on.recoveries, 1u);  // the fault actually fired and recovered
}

TEST(PagesIntegration, DeltaRestartMovesFewerBytes) {
  // After a recovery with the tier on, the engine's restart accounting must
  // show the delta transfer moving no more than a full aux copy would — and
  // the delta/full split must surface through UndoLogStats into
  // collect_metrics.
  const FaultedRun on = run_faulted_blob_workload(large_state_cfg(true));
  ASSERT_GE(on.recoveries, 1u);
  EXPECT_GT(on.full_copy_bytes, 0u);
  EXPECT_LE(on.delta_restart_bytes, on.full_copy_bytes);
}

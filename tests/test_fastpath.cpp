// IPC fast-path tests (DESIGN.md §14): kernel queue FIFO order and the
// livelock valve, grant-span zero-copy round trips over the spec table's bulk
// rows, the MiniFs borrow path, and the metrics surfacing that rides along.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "kernel/kernel.hpp"
#include "os/instance.hpp"
#include "servers/msg_spec.hpp"
#include "servers/protocol.hpp"
#include "support/clock.hpp"
#include "support/rng.hpp"

using namespace osiris;
using kernel::Access;
using kernel::Endpoint;
using kernel::Kernel;
using kernel::make_msg;
using kernel::make_reply;
using kernel::Message;
using os::ISys;
using os::OsInstance;

namespace {

/// Server that records the arg[0] of every delivered message, in order.
class RecordingServer : public kernel::IServer {
 public:
  [[nodiscard]] std::string_view name() const override { return "rec"; }
  std::optional<Message> dispatch(const Message& m) override {
    delivered.push_back(m.arg[0]);
    return std::nullopt;  // fire-and-forget: no replies back into the queue
  }
  std::vector<std::uint64_t> delivered;
};

class NullClient : public kernel::IClient {
 public:
  void on_reply(const Message&) override {}
  void on_notify(const Message&) override {}
};

/// Server that re-notifies itself on every notification it receives: a
/// self-sustaining storm that keeps the kernel's drain loop fed forever.
class SelfNotifyServer : public kernel::IServer {
 public:
  SelfNotifyServer(Kernel& kern, Endpoint self) : kern_(kern), self_(self) {}
  [[nodiscard]] std::string_view name() const override { return "spin"; }
  std::optional<Message> dispatch(const Message& m) override {
    delivered.push_back(m.type);
    if (kernel::is_notify(m.type)) kern_.notify(self_, self_, 0x43);
    return std::nullopt;
  }
  std::vector<std::uint32_t> delivered;

 private:
  Kernel& kern_;
  Endpoint self_;
};

/// Run a fixed send script of random bursts against a plain kernel; returns
/// the delivered arg[0] order observed by the server.
std::vector<std::uint64_t> run_script() {
  VirtualClock clock;
  Kernel kern(clock);
  RecordingServer server;
  NullClient client;
  kern.register_server(kernel::kVfsEp, &server);
  const Endpoint cli = kern.register_client(&client);

  // Mixed NSM (VFS_FSTAT) and SM (VFS_CLOSE) requests in bursts of random
  // size, each burst drained before the next is sent.
  std::uint64_t seq = 0;
  Rng rng(7);
  for (int round = 0; round < 40; ++round) {
    const std::uint64_t burst = 1 + rng.below(10);
    for (std::uint64_t i = 0; i < burst; ++i) {
      const std::uint32_t type = rng.below(4) != 0 ? servers::VFS_FSTAT : servers::VFS_CLOSE;
      kern.send(cli, kernel::kVfsEp, make_msg(type, seq++));
    }
    kern.dispatch_pending();
  }
  EXPECT_TRUE(kern.queue_empty());
  return server.delivered;
}

}  // namespace

// --- kernel queue: FIFO delivery and the livelock valve ----------------------

TEST(KernelQueue, DeliveryOrderEqualsSendOrder) {
  const std::vector<std::uint64_t> delivered = run_script();
  std::vector<std::uint64_t> sent(delivered.size());
  for (std::uint64_t i = 0; i < sent.size(); ++i) sent[i] = i;
  ASSERT_FALSE(sent.empty());
  EXPECT_EQ(delivered, sent);
}

TEST(KernelQueue, BurstCapAbortsSelfSustainingStormAndRecovers) {
  VirtualClock clock;
  Kernel kern(clock);
  SelfNotifyServer server(kern, kernel::kVfsEp);
  NullClient client;
  kern.register_server(kernel::kVfsEp, &server);
  const Endpoint cli = kern.register_client(&client);
  constexpr std::uint64_t kCap = 50;
  kern.set_dispatch_burst_cap(kCap);

  // Without the valve this drain loop would never return.
  kern.notify(cli, kernel::kVfsEp, 0x43);
  EXPECT_TRUE(kern.dispatch_pending());
  EXPECT_EQ(kern.stats().dispatch_aborts, 1u);
  EXPECT_TRUE(kern.queue_empty()) << "the valve must drop the backlog";
  EXPECT_EQ(server.delivered.size(), kCap);

  // The kernel is usable afterwards: a plain request is delivered normally.
  server.delivered.clear();
  kern.send(cli, kernel::kVfsEp, make_msg(0x42, 7));
  EXPECT_TRUE(kern.dispatch_pending());
  EXPECT_EQ(server.delivered, std::vector<std::uint32_t>{0x42});
  EXPECT_EQ(kern.stats().dispatch_aborts, 1u);
  EXPECT_TRUE(kern.queue_empty());
}

// --- grant spans: zero-copy semantics match safecopy ------------------------

namespace {

struct GrantFixture : ::testing::Test {
  VirtualClock clock;
  Kernel kern{clock};
  RecordingServer server;
  NullClient client;
  Endpoint client_ep;

  void SetUp() override {
    kern.register_server(kernel::kVfsEp, &server);
    client_ep = kern.register_client(&client);
  }
};

}  // namespace

TEST_F(GrantFixture, SpanIsDirectViewOfGrantRegion) {
  std::byte buf[256] = {};
  const kernel::GrantId g =
      kern.make_grant(client_ep, kernel::kVfsEp, buf, sizeof buf, Access::kWrite);
  std::int64_t err = kernel::OK;
  std::byte* span = kern.grant_span(kernel::kVfsEp, g, 16, 64, Access::kWrite, &err);
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(err, kernel::OK);
  EXPECT_EQ(span, buf + 16) << "span must alias the granted memory, not a copy";
  std::memset(span, 0x7f, 64);
  EXPECT_EQ(buf[16], std::byte{0x7f});
  EXPECT_EQ(buf[79], std::byte{0x7f});
  EXPECT_EQ(kern.stats().grant_spans, 1u);

  kern.note_grant_bypass(kernel::kVfsEp, 64, /*dir=*/1);
  EXPECT_EQ(kern.stats().grant_bypass_bytes, 64u);
  EXPECT_EQ(kern.stats().safecopy_bytes, 0u) << "bypass must not masquerade as a safecopy";
}

TEST_F(GrantFixture, SpanRejectsExactlyWhatSafecopyRejects) {
  std::byte buf[64] = {};
  const kernel::GrantId g =
      kern.make_grant(client_ep, kernel::kVfsEp, buf, sizeof buf, Access::kRead);
  std::byte tmp[128] = {};

  // Grant smaller than the request: span fails with the same error safecopy
  // returns, which is what lets callers fall back to the staging path.
  std::int64_t span_err = kernel::OK;
  EXPECT_EQ(kern.grant_span(kernel::kVfsEp, g, 0, 128, Access::kRead, &span_err), nullptr);
  EXPECT_EQ(span_err, kern.safecopy_from(kernel::kVfsEp, g, 0, tmp, 128));

  // Wrong access direction.
  span_err = kernel::OK;
  EXPECT_EQ(kern.grant_span(kernel::kVfsEp, g, 0, 16, Access::kWrite, &span_err), nullptr);
  EXPECT_EQ(span_err, kern.safecopy_to(kernel::kVfsEp, g, 0, tmp, 16));

  // Wrong grantee.
  span_err = kernel::OK;
  EXPECT_EQ(kern.grant_span(kernel::kPmEp, g, 0, 16, Access::kRead, &span_err), nullptr);
  EXPECT_EQ(span_err, kern.safecopy_from(kernel::kPmEp, g, 0, tmp, 16));

  // Revoked grant.
  kern.revoke_grant(g);
  span_err = kernel::OK;
  EXPECT_EQ(kern.grant_span(kernel::kVfsEp, g, 0, 16, Access::kRead, &span_err), nullptr);
  EXPECT_EQ(span_err, kern.safecopy_from(kernel::kVfsEp, g, 0, tmp, 16));
  EXPECT_EQ(kern.stats().grant_spans, 0u) << "failed spans must not count as handouts";
}

// --- zero-copy through the OS stack: every bulk-eligible spec row -----------

namespace {

/// Spec rows that carry a grant argument — the bulk-eligible surface. Driven
/// from the table so a future bulk message type fails this test until it is
/// covered below.
std::vector<std::string> bulk_rows() {
  std::vector<std::string> rows;
  for (const servers::MsgSpec& s : servers::kMsgSpecTable) {
    if (std::strstr(s.doc, "grant") != nullptr) rows.emplace_back(s.name);
  }
  return rows;
}

}  // namespace

TEST(ZeroCopy, EveryBulkEligibleSpecRowRoundTripsThroughGrantSpans) {
  // If this assertion fires, a new grant-carrying row joined the table:
  // extend the body below to exercise it end to end.
  EXPECT_EQ(bulk_rows(), (std::vector<std::string>{"VFS_READ", "VFS_WRITE"}));

  os::OsConfig cfg;
  cfg.fastpath.zero_copy = true;
  OsInstance inst(cfg);
  inst.boot();
  const std::size_t bulk = 3 * kernel::kMsgTextCap;  // above the inline threshold

  std::uint64_t bypass_after_write = 0;
  const auto outcome = inst.run([&](ISys& sys) {
    const std::int64_t fd = sys.open("/tmp/zc", servers::O_CREAT | servers::O_RDWR);
    ASSERT_GE(fd, 0);

    // VFS_WRITE: payload travels grant -> cache with no staging copy.
    std::vector<std::byte> out(bulk);
    for (std::size_t i = 0; i < bulk; ++i) out[i] = static_cast<std::byte>(i * 7 + 3);
    ASSERT_EQ(sys.write(fd, out), static_cast<std::int64_t>(bulk));
    bypass_after_write = inst.kern().stats().grant_bypass_bytes;
    EXPECT_GE(bypass_after_write, bulk) << "VFS_WRITE did not take the zero-copy path";

    // VFS_READ: payload travels cache -> grant with no staging copy.
    ASSERT_EQ(sys.lseek(fd, 0, 0), 0);
    std::vector<std::byte> back(bulk);
    ASSERT_EQ(sys.read(fd, back), static_cast<std::int64_t>(bulk));
    EXPECT_EQ(back, out);
    EXPECT_GE(inst.kern().stats().grant_bypass_bytes, bypass_after_write + bulk)
        << "VFS_READ did not take the zero-copy path";
    EXPECT_EQ(sys.close(fd), kernel::OK);
  });
  EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted);
  EXPECT_GT(inst.kern().stats().grant_spans, 0u);
}

TEST(ZeroCopy, InlineSizedPayloadsSkipTheBypass) {
  os::OsConfig cfg;
  cfg.fastpath.zero_copy = true;
  OsInstance inst(cfg);
  inst.boot();
  const auto outcome = inst.run([&](ISys& sys) {
    const std::int64_t fd = sys.open("/tmp/small", servers::O_CREAT | servers::O_RDWR);
    ASSERT_GE(fd, 0);
    // At the threshold, the staging copy is cheaper than the grant check.
    std::vector<std::byte> buf(kernel::kMsgTextCap, std::byte{0x11});
    ASSERT_EQ(sys.write(fd, buf), static_cast<std::int64_t>(buf.size()));
    EXPECT_EQ(inst.kern().stats().grant_bypass_bytes, 0u);
    EXPECT_GT(inst.kern().stats().safecopy_bytes, 0u);
  });
  EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted);
}

TEST(ZeroCopy, FlagOffNeverBypasses) {
  OsInstance inst{os::OsConfig{}};
  inst.boot();
  const std::size_t bulk = 3 * kernel::kMsgTextCap;
  const auto outcome = inst.run([&](ISys& sys) {
    const std::int64_t fd = sys.open("/tmp/off", servers::O_CREAT | servers::O_RDWR);
    ASSERT_GE(fd, 0);
    std::vector<std::byte> buf(bulk, std::byte{0x22});
    ASSERT_EQ(sys.write(fd, buf), static_cast<std::int64_t>(bulk));
    std::vector<std::byte> back(bulk);
    ASSERT_EQ(sys.lseek(fd, 0, 0), 0);
    ASSERT_EQ(sys.read(fd, back), static_cast<std::int64_t>(bulk));
    EXPECT_EQ(back, buf);
  });
  EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted);
  EXPECT_EQ(inst.kern().stats().grant_bypass_bytes, 0u);
  EXPECT_EQ(inst.kern().stats().grant_spans, 0u);
}

// --- MiniFs borrow path: contents identical across the flag -----------------

TEST(ZeroCopy, RandomizedFileOpsMatchReferenceModelAcrossFlag) {
  // Random read/write/lseek sequences, mirrored against an in-memory byte
  // model, once per flag setting. This exercises the MiniFs peek path:
  // indirect-block borrows, partial-block RMW, full-block write-through,
  // holes from sparse lseek, and the borrow-invalidates-on-store rule.
  for (const bool zero_copy : {false, true}) {
    os::OsConfig cfg;
    cfg.fastpath.zero_copy = zero_copy;
    OsInstance inst(cfg);
    inst.boot();
    const auto outcome = inst.run([&](ISys& sys) {
      // Big enough that block 10+ goes through the indirect block.
      constexpr std::size_t kMax = 48 * 1024;
      std::vector<std::byte> model(kMax, std::byte{0});
      std::size_t model_size = 0;

      const std::int64_t fd = sys.open("/tmp/prop", servers::O_CREAT | servers::O_RDWR);
      ASSERT_GE(fd, 0);
      Rng rng(zero_copy ? 21u : 22u);
      std::uint8_t tint = 1;
      for (int op = 0; op < 150; ++op) {
        const std::size_t pos = rng.below(kMax);
        const std::size_t len = 1 + rng.below(std::min<std::uint64_t>(kMax - pos, 5000));
        ASSERT_EQ(sys.lseek(fd, static_cast<std::int64_t>(pos), 0),
                  static_cast<std::int64_t>(pos));
        if (rng.below(2) == 0) {
          std::vector<std::byte> w(len, static_cast<std::byte>(tint++));
          ASSERT_EQ(sys.write(fd, w), static_cast<std::int64_t>(len));
          std::memcpy(model.data() + pos, w.data(), len);
          model_size = std::max(model_size, pos + len);
        } else {
          std::vector<std::byte> r(len, std::byte{0xee});
          const std::int64_t n = sys.read(fd, r);
          const std::size_t expect_n = pos >= model_size ? 0 : std::min(len, model_size - pos);
          ASSERT_EQ(n, static_cast<std::int64_t>(expect_n)) << "op " << op;
          ASSERT_EQ(std::memcmp(r.data(), model.data() + pos, expect_n), 0)
              << "op " << op << " at pos " << pos;
        }
      }
      EXPECT_EQ(sys.close(fd), kernel::OK);
    });
    EXPECT_EQ(outcome, OsInstance::Outcome::kCompleted) << "zero_copy=" << zero_copy;
  }
}

// --- metrics surfacing -------------------------------------------------------

TEST(FastPathMetrics, ZeroCopyAndQueueCountersSurfaceInCollectMetrics) {
  os::OsConfig cfg;
  cfg.fastpath.zero_copy = true;
  OsInstance inst(cfg);
  inst.boot();
  const std::size_t bulk = 3 * kernel::kMsgTextCap;
  const auto outcome = inst.run([&](ISys& sys) {
    const std::int64_t fd = sys.open("/tmp/metrics", servers::O_CREAT | servers::O_RDWR);
    std::vector<std::byte> buf(bulk, std::byte{0x33});
    sys.write(fd, buf);
    // Metadata tail: more queue traffic, none of it bulk.
    for (int i = 0; i < 40; ++i) {
      (void)sys.getpid();
      std::uint64_t v = 0;
      (void)sys.ds_retrieve("nope", &v);
    }
    sys.close(fd);
  });
  ASSERT_EQ(outcome, OsInstance::Outcome::kCompleted);

  const core::SystemMetrics m = core::collect_metrics(inst);
  EXPECT_GT(m.kernel.queue_high_water, 0u);
  EXPECT_GT(m.kernel.grant_bypass_bytes, 0u);
  EXPECT_GT(m.kernel.grant_spans, 0u);
  EXPECT_EQ(m.kernel.grant_bypass_bytes, inst.kern().stats().grant_bypass_bytes);
  EXPECT_EQ(m.kernel.safecopy_bytes, inst.kern().stats().safecopy_bytes);

  const std::string report = m.report();
  EXPECT_NE(report.find("fastpath:"), std::string::npos);
  EXPECT_NE(report.find("zero-copy"), std::string::npos);
}

TEST(FastPathMetrics, QueueHighWaterTracksWithoutFlags) {
  // The high-water mark is substrate accounting, live even with every fast-
  // path flag off — a clean run must still report a sane depth.
  OsInstance inst{os::OsConfig{}};
  inst.boot();
  const auto outcome = inst.run([](ISys& sys) {
    for (int i = 0; i < 10; ++i) (void)sys.getpid();
  });
  ASSERT_EQ(outcome, OsInstance::Outcome::kCompleted);
  const core::SystemMetrics m = core::collect_metrics(inst);
  EXPECT_GT(m.kernel.queue_high_water, 0u);
  EXPECT_EQ(m.kernel.grant_bypass_bytes, 0u);
}

// Unit tests: the core facade (umbrella header compiles; metrics snapshot).
#include <gtest/gtest.h>

#include "core/osiris.hpp"

using namespace osiris;

TEST(Metrics, SnapshotAfterSuiteRun) {
  fi::Registry::instance().disarm();
  os::OsConfig cfg;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  const auto suite = workload::run_suite(inst);
  ASSERT_EQ(suite.failed, 0);

  const core::SystemMetrics m = core::collect_metrics(inst);
  ASSERT_EQ(m.components.size(), 5u);
  EXPECT_GT(m.weighted_coverage, 0.3);
  EXPECT_GT(m.kernel.messages_queued, 1000u);
  EXPECT_EQ(m.kernel.crashes, 0u);
  EXPECT_EQ(m.engine.rollbacks, 0u);

  for (const auto& c : m.components) {
    EXPECT_GT(c.state_bytes, 0u) << c.name;
    EXPECT_GE(c.clone_bytes, c.state_bytes) << c.name;
    EXPECT_EQ(c.recoveries, 0u) << c.name;
  }
  // VM's clone dominates (frame map + recovery arena), as in Table VI.
  std::size_t vm_clone = 0, others_max = 0;
  for (const auto& c : m.components) {
    if (c.name == "vm") vm_clone = c.clone_bytes;
    else others_max = std::max(others_max, c.clone_bytes);
  }
  EXPECT_GT(vm_clone, others_max);

  const std::string report = m.report();
  EXPECT_NE(report.find("weighted coverage"), std::string::npos);
  EXPECT_NE(report.find("vm"), std::string::npos);
}

TEST(Metrics, RecoveryCountsAppear) {
  fi::Registry::instance().disarm();
  fi::Registry::instance().reset_counts();
  // Profile to find a PM site.
  fi::Site* site = nullptr;
  {
    os::OsConfig cfg;
    os::OsInstance inst(cfg);
    workload::register_suite_programs(inst.programs());
    inst.boot();
    inst.run([](os::ISys& sys) {
      for (int i = 0; i < 20; ++i) sys.getpid();
    });
    for (fi::Site* s : fi::Registry::instance().sites()) {
      if (std::string_view(s->tag) == "pm" && s->hits() > 10) {
        site = s;
        break;
      }
    }
  }
  ASSERT_NE(site, nullptr);
  fi::Registry::instance().reset_counts();

  os::OsConfig cfg;
  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  fi::Registry::instance().arm(site, fi::FaultType::kNullDeref, 10);
  inst.run([](os::ISys& sys) {
    for (int i = 0; i < 20; ++i) sys.getpid();
  });
  fi::Registry::instance().disarm();

  const core::SystemMetrics m = core::collect_metrics(inst);
  EXPECT_EQ(m.kernel.crashes, 1u);
  EXPECT_EQ(m.engine.rollbacks, 1u);
  EXPECT_EQ(m.engine.restarts, 1u);
}

TEST(Metrics, ReportShowsEverySection) {
  // One run that lights every conditional report line: the FOM executor on a
  // small cache (fom[]), the page tier with DS blobs (pages[]), the health
  // monitor (health:), tracing (trace:), and an in-window PM crash so the
  // engine line carries a recovery.
  os::OsConfig cfg;
  cfg.fastpath.zero_copy = true;
  cfg.vfs_fom = true;
  cfg.cache_blocks = 4;
  cfg.ckpt_pages.enabled = true;
  cfg.ds_blob_slots = 64;
  cfg.health.enabled = true;
  cfg.trace_enabled = true;
  const auto body = [](os::ISys& sys) {
    for (int i = 0; i < 20; ++i) sys.getpid();
    for (int i = 0; i < 4; ++i) sys.ds_publish("report.key", static_cast<std::uint64_t>(i));
    const std::vector<std::byte> data(16 * 1024, std::byte{0x5A});
    std::vector<std::byte> back(data.size());
    for (const char* path : {"/tmp/report-a", "/tmp/report-b"}) {
      const std::int64_t fd = sys.open(path, servers::O_CREAT | servers::O_RDWR);
      sys.write(fd, data);
      sys.close(fd);
    }
    const std::int64_t fd = sys.open("/tmp/report-a", servers::O_RDONLY);
    sys.read(fd, std::span<std::byte>(back.data(), back.size()));
    sys.close(fd);
  };

  fi::Registry::instance().disarm();
  fi::Registry::instance().reset_counts();
  fi::Site* site = nullptr;
  {
    os::OsInstance inst(cfg);
    workload::register_suite_programs(inst.programs());
    inst.boot();
    inst.run(body);
    for (fi::Site* s : fi::Registry::instance().sites()) {
      if (std::string_view(s->tag) == "pm" && s->hits() > 10) {
        site = s;
        break;
      }
    }
  }
  ASSERT_NE(site, nullptr);
  fi::Registry::instance().reset_counts();

  os::OsInstance inst(cfg);
  workload::register_suite_programs(inst.programs());
  inst.boot();
  fi::Registry::instance().arm(site, fi::FaultType::kNullDeref, 10);
  ASSERT_EQ(inst.run(body), os::OsInstance::Outcome::kCompleted);
  fi::Registry::instance().disarm();

  const core::SystemMetrics m = core::collect_metrics(inst);
  EXPECT_EQ(m.engine.rollbacks, 1u);
  const std::string report = m.report();
  std::vector<std::string> sections = {"weighted coverage: ", "\nkernel: ", "\nfastpath: ",
                                       "\nengine: ", "\nclassification: ", "\nfom[vfs]: ",
                                       "\npages[ds]: ", "\nhealth: "};
  if (OSIRIS_TRACE_ENABLED) sections.push_back("\ntrace: ");
  for (const std::string& s : sections) EXPECT_NE(report.find(s), std::string::npos) << s;
  // The kernel line prints the kernel's own counter, not a copy of it.
  EXPECT_NE(report.find("\nkernel: " + std::to_string(inst.kern().stats().messages_queued) +
                        " messages,"),
            std::string::npos);
}

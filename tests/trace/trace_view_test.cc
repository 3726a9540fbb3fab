#include "src/trace/trace_view.h"

#include <gtest/gtest.h>

#include "src/workload/zipf_workload.h"

namespace s3fifo {
namespace {

Trace MakeTrace() {
  ZipfWorkloadConfig cfg;
  cfg.num_objects = 500;
  cfg.num_requests = 6000;
  cfg.write_fraction = 0.1;
  cfg.delete_fraction = 0.03;
  cfg.size_sigma = 0.8;
  cfg.seed = 13;
  Trace t = GenerateZipfTrace(cfg);
  t.set_name("view-test");
  std::vector<uint64_t> next_access(t.size());
  for (uint64_t i = 0; i < next_access.size(); ++i) {
    next_access[i] = i % 4 == 0 ? kNeverAccessed : i + 2;
  }
  t.set_next_access(std::move(next_access));
  return t;
}

TEST(TraceViewTest, DefaultViewIsEmpty) {
  const TraceView view;
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.size(), 0u);
  EXPECT_FALSE(view.annotated());
  EXPECT_EQ(view.AsRequests(), nullptr);
  EXPECT_EQ(view.NextAccess(), nullptr);
}

TEST(TraceViewTest, BorrowedHeapViewMatchesTrace) {
  const Trace trace = MakeTrace();
  const TraceView view = TraceView::Borrow(trace);
  ASSERT_EQ(view.size(), trace.size());
  EXPECT_EQ(view.name(), trace.name());
  EXPECT_TRUE(view.annotated());
  // The view reads the trace's own arrays and stats: no copy.
  EXPECT_EQ(view.AsRequests(), trace.requests().data());
  EXPECT_EQ(view.NextAccess(), trace.next_access().data());
  EXPECT_EQ(&view.stats(), &trace.Stats());
  const Request* reqs = view.AsRequests();
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(reqs[i].id, trace[i].id) << i;
    EXPECT_EQ(reqs[i].size, trace[i].size) << i;
    EXPECT_EQ(reqs[i].op, trace[i].op) << i;
  }
}

TEST(TraceViewTest, UnannotatedViewHasNoNextAccessColumn) {
  Trace trace = MakeTrace();
  trace.Append({.id = 1});  // a new request makes the column stale: it is dropped
  const TraceView view = TraceView::Borrow(trace);
  EXPECT_FALSE(view.annotated());
  EXPECT_EQ(view.NextAccess(), nullptr);
  EXPECT_TRUE(trace.next_access().empty());
}

}  // namespace
}  // namespace s3fifo

// Parallel, fault-tolerant task runner — the in-process analog of the
// paper's distributed computation platform (§5.1.2). Tasks run on a thread
// pool; a task that throws is retried up to `max_retries` times and reported
// as failed afterwards, without affecting other tasks.
#ifndef SRC_SIM_RUNNER_H_
#define SRC_SIM_RUNNER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace s3fifo {

struct RunnerOptions {
  unsigned num_threads = 0;  // 0 = hardware concurrency
  uint32_t max_retries = 2;
};

// Outcome of one fault-tolerant task (see RunTasks).
struct TaskOutcome {
  bool ok = false;
  uint32_t attempts = 0;
  std::string error;
};

// The runner underlying the sweep engine: executes task(i) for every i in
// [0, num_tasks) on a thread pool, retrying a throwing task up to
// max_retries times without affecting the others. Outcomes are
// index-aligned with the task indices.
std::vector<TaskOutcome> RunTasks(size_t num_tasks, const std::function<void(size_t)>& task,
                                  const RunnerOptions& options = {});

}  // namespace s3fifo

#endif  // SRC_SIM_RUNNER_H_

#include "src/sim/runner.h"

#include <algorithm>
#include <exception>
#include <thread>

#include "src/util/thread_pool.h"

namespace s3fifo {

std::vector<TaskOutcome> RunTasks(size_t num_tasks, const std::function<void(size_t)>& task,
                                  const RunnerOptions& options) {
  std::vector<TaskOutcome> outcomes(num_tasks);
  unsigned threads = options.num_threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  ThreadPool pool(threads);
  for (size_t i = 0; i < num_tasks; ++i) {
    pool.Submit([&task, &outcomes, &options, i] {
      TaskOutcome& out = outcomes[i];
      for (uint32_t attempt = 0; attempt <= options.max_retries; ++attempt) {
        out.attempts = attempt + 1;
        try {
          task(i);
          out.ok = true;
          return;
        } catch (const std::exception& e) {
          out.error = e.what();
        } catch (...) {
          out.error = "unknown exception";
        }
      }
    });
  }
  pool.Wait();
  return outcomes;
}

}  // namespace s3fifo

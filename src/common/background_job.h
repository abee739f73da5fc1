// One background job and its scheduling handshake, LevelDB-style: callers
// request runs, the job runs on its own worker (or inline), and its first
// error waits for whoever asks. ElsmDb owns two, the async memtable flush
// and the ripple compaction; the LSM engine itself runs no threads.
//
// The job runs on a common::ThreadPool of one thread, or of none (inline on
// the thread that calls Schedule). Requests coalesce: one made while a run
// is queued but not yet started is served by that run; one made while the
// job is running queues exactly one more run, so a request is always
// followed by a run that starts after it.
//
// Stop rule: a run requested before Stop() still runs (Stop waits for it),
// a request made after Stop() is dropped, and the worker thread joins.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>

#include "common/status.h"
#include "common/thread_pool.h"

namespace elsm::common {

class BackgroundJob {
 public:
  // `threaded` gives the job one worker thread; otherwise Schedule() runs
  // it on the caller before returning (unless the request coalesces into
  // another caller's run that has not started yet).
  BackgroundJob(std::function<Status()> job, bool threaded);
  ~BackgroundJob() { Stop(); }

  BackgroundJob(const BackgroundJob&) = delete;
  BackgroundJob& operator=(const BackgroundJob&) = delete;

  // Requests one run (coalesced as above; dropped once stopped).
  void Schedule();
  // Blocks until no run is queued or running.
  void WaitIdle();
  // The first error a run returned since the last call, then Ok until a
  // run fails again.
  Status TakeStatus();
  // Runs what was requested, drops later requests, joins the worker.
  // Idempotent; never call it from the job itself.
  void Stop();

 private:
  void Run();

  const std::function<Status()> job_;
  std::mutex mu_;
  std::condition_variable idle_cv_;
  bool pending_ = false;   // a queued run has not started yet
  size_t in_flight_ = 0;   // runs requested and not yet finished
  bool stopped_ = false;
  Status first_error_;
  // Declared last: its worker runs Run(), which uses everything above.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace elsm::common

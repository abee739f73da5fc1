#include "common/background_job.h"

#include <exception>
#include <string>
#include <utility>

namespace elsm::common {

BackgroundJob::BackgroundJob(std::function<Status()> job, bool threaded)
    : job_(std::move(job)),
      pool_(std::make_unique<ThreadPool>(threaded ? 1 : 0)) {}

void BackgroundJob::Schedule() {
  ThreadPool* pool = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_ || pending_) return;
    pending_ = true;
    ++in_flight_;
    pool = pool_.get();
  }
  // Submitted with no lock held, since an inline run takes mu_ itself.
  // Stop() cannot free the pool meanwhile: it first waits for this run,
  // and Submit touches no pool state once the run can start.
  pool->Submit([this] { Run(); });
}

void BackgroundJob::Run() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_ = false;  // a request from here on needs another run
  }
  Status s;
  try {
    s = job_();
  } catch (const std::exception& e) {
    // The pool would park it in a future nobody reads.
    s = Status::IOError(std::string("background job threw: ") + e.what());
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!s.ok() && first_error_.ok()) first_error_ = std::move(s);
  --in_flight_;
  idle_cv_.notify_all();
}

void BackgroundJob::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

Status BackgroundJob::TakeStatus() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(first_error_, Status::Ok());
}

void BackgroundJob::Stop() {
  std::unique_lock<std::mutex> lock(mu_);
  stopped_ = true;
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
  pool_.reset();  // nothing is queued: joins the idle worker
}

}  // namespace elsm::common

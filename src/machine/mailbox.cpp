#include "machine/mailbox.hpp"

#include <algorithm>

#include "machine/event_log.hpp"
#include "machine/scheduler.hpp"
#include "support/check.hpp"

namespace kali {

void Mailbox::push(Message m) {
  bool wake_owner = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    // Does this message satisfy the owner fiber's published wait?  Consume
    // the publication under the lock so exactly one push wakes one park.
    if (waiting_active_ && m.tag == waiting_tag_ && m.src == waiting_src_) {
      waiting_active_ = false;
      wake_owner = true;
    }
    queue_.push_back(std::move(m));
    peak_pending_ = std::max(peak_pending_, queue_.size());
  }
  if (wake_owner) {
    // Outside the mailbox lock: the stall handler reads mailboxes under
    // the scheduler lock, so the order is scheduler, then mailbox.
    sched_->wake(owner_rank_);
  }
}

std::optional<Message> Mailbox::try_pop_locked(int src, int tag) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->src == src && it->tag == tag) {
      Message m = std::move(*it);
      queue_.erase(it);
      return m;
    }
  }
  return std::nullopt;
}

bool Mailbox::has_match_locked(int src, int tag) const {
  return std::any_of(queue_.begin(), queue_.end(), [&](const Message& m) {
    return m.src == src && m.tag == tag;
  });
}

std::optional<Message> Mailbox::try_pop(int src, int tag) {
  std::optional<Message> m;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (aborted_) {
      throw Error("recv aborted: a peer processor failed");
    }
    m = try_pop_locked(src, tag);
  }
  if (m.has_value() && sched_ != nullptr) {
    if (EventLog* log = sched_->event_log(); log != nullptr) {
      log->match(owner_rank_, m->src, m->seq);
    }
  }
  return m;
}

void Mailbox::attach_scheduler(FiberScheduler* sched, int owner_rank) {
  std::lock_guard<std::mutex> lk(mu_);
  sched_ = sched;
  owner_rank_ = owner_rank;
  waiting_active_ = false;
}

Message Mailbox::recv(int src, int tag) {
  await_match(src, tag);
  // Only the owner fiber consumes this queue, so the match is still there.
  return std::move(*try_pop(src, tag));
}

void Mailbox::await_match(int src, int tag) {
  FiberScheduler* sched = sched_;
  KALI_CHECK(sched != nullptr && FiberScheduler::current() == sched,
             "Mailbox: blocking receive outside a fiber of the attached "
             "scheduler");
  for (;;) {
    if (sched->aborted()) {
      // Scheduler-level abort (a diagnosed deadlock or stack overflow) may
      // not have marked the mailboxes; without this check a parked recv
      // would re-park forever against a pool that is shutting down.
      throw Error("recv aborted: the scheduler is shutting down");
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (aborted_) {
        throw Error("recv aborted: a peer processor failed");
      }
      if (has_match_locked(src, tag)) {
        return;
      }
    }
    // Announce the park, then publish the wake condition under the mailbox
    // lock.  A push that lands in the window between the unlock below and
    // the suspension finds the fiber kParking and flags it — the scheduler
    // requeues it right after the switch, so the wake is never lost.
    sched->prepare_park();
    bool parked = true;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (aborted_ || has_match_locked(src, tag)) {
        parked = false;  // already satisfiable: don't suspend
      } else {
        // The matching push consumes the publication and wakes the owner
        // once; the loop re-checks the queue after the wake.
        waiting_src_ = src;
        waiting_tag_ = tag;
        waiting_active_ = true;
      }
    }
    if (parked) {
      sched->commit_park();
    } else {
      sched->cancel_park();
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      // An abort wake may leave the publication unconsumed.
      waiting_active_ = false;
      if (aborted_) {
        throw Error("recv aborted: a peer processor failed");
      }
    }
  }
}

std::optional<std::pair<int, int>> Mailbox::published_wait() const {
  std::lock_guard<std::mutex> lk(mu_);
  if (!waiting_active_) {
    return std::nullopt;
  }
  return std::make_pair(waiting_src_, waiting_tag_);
}

std::vector<PendingMessage> Mailbox::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<PendingMessage> out;
  out.reserve(queue_.size());
  for (const auto& m : queue_) {
    out.push_back({m.src, m.tag, m.size_bytes(), m.epoch});
  }
  return out;
}

void Mailbox::abort() {
  bool wake_owner = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    aborted_ = true;
    if (waiting_active_) {
      waiting_active_ = false;
      wake_owner = true;
    }
  }
  if (wake_owner) {
    sched_->wake(owner_rank_);
  }
}

std::size_t Mailbox::pending() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queue_.size();
}

std::size_t Mailbox::max_pending() const {
  std::lock_guard<std::mutex> lk(mu_);
  return peak_pending_;
}

void Mailbox::reset_peak() {
  std::lock_guard<std::mutex> lk(mu_);
  peak_pending_ = 0;
}

}  // namespace kali

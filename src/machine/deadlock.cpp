#include "machine/deadlock.hpp"

#include <algorithm>
#include <sstream>

namespace kali {

std::string describe_pending(const Mailbox& mb, int owner_rank,
                             std::uint32_t max_epoch) {
  std::vector<PendingMessage> pending = mb.snapshot();
  // Arrival order across senders is host interleaving; per source it is
  // the sender's program order.  Group by source to keep only the latter.
  std::stable_sort(pending.begin(), pending.end(),
                   [](const PendingMessage& a, const PendingMessage& b) {
                     return a.src < b.src;
                   });
  std::string out;
  for (const auto& pm : pending) {
    if (pm.epoch > max_epoch) {
      continue;
    }
    out += "    " + std::to_string(pm.src) + " -> " +
           std::to_string(owner_rank) + " tag " + std::to_string(pm.tag) +
           " (" + tag_name(pm.tag) + ", " + std::to_string(pm.bytes) +
           " B, epoch " + std::to_string(pm.epoch) + ")\n";
  }
  return out;
}

std::size_t stale_pending(const Mailbox& mb, std::uint32_t max_epoch) {
  std::size_t n = 0;
  for (const auto& pm : mb.snapshot()) {
    if (pm.epoch <= max_epoch) {
      ++n;
    }
  }
  return n;
}

std::string diagnose_stall(const std::vector<const Mailbox*>& mailboxes,
                           const std::vector<StallState>& states) {
  std::ostringstream ranks;
  int nstuck = 0;
  for (std::size_t r = 0; r < states.size(); ++r) {
    const Mailbox& mb = *mailboxes[r];
    ranks << "  rank " << r << ": ";
    bool parked = true;
    switch (states[r]) {
      case StallState::kFinished:
        ranks << "done (program finished; will never send again)\n";
        parked = false;
        break;
      case StallState::kParked:
        if (const auto wait = mb.published_wait()) {
          const auto [src, tag] = *wait;
          ranks << "STUCK in recv(src=" << src << ", tag=" << tag
                << " " << tag_name(tag) << ")\n";
          ++nstuck;
        } else {
          ranks << "parked with no published receive\n";
        }
        break;
    }
    const std::string pending = describe_pending(mb, static_cast<int>(r));
    ranks << (pending.empty() && parked ? "    mailbox empty\n" : pending);
  }
  std::ostringstream os;
  os << "deadlock detected by the wait-for-graph check: " << nstuck
     << " rank(s) blocked in recv with no rank or in-flight message able "
        "to satisfy them (every rank is finished or parked, so nothing "
        "can send again)\n";
  std::string out = os.str() + ranks.str();
  out.pop_back();  // the last rank line's newline
  return out;
}

}  // namespace kali

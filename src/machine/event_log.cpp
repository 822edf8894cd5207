#include "machine/event_log.hpp"

#include <array>
#include <ostream>
#include <sstream>

#include "support/check.hpp"

namespace kali {

namespace {

// write_hb's line names, indexed by Kind; trace-only and activity records
// (kRecv, kMark) have none.
constexpr std::array<const char*, 9> kHbNames = {
    "send", "recv", nullptr, "park", "wake", "woken", "r", "w", nullptr};
static_assert(kHbNames.size() ==
              static_cast<std::size_t>(EventLog::Kind::kMark) + 1);

// Access-object names, indexed by HbObj.
constexpr std::array<const char*, 6> kObjNames = {
    "clock", "link", "ledger", "ctr", "epoch", "mbox"};
static_assert(kObjNames.size() == static_cast<std::size_t>(HbObj::kMbox) + 1);

}  // namespace

// --- ActivityTrace ----------------------------------------------------------

ActivityTrace::ActivityTrace(int nsteps, int nprocs)
    : nsteps_(nsteps),
      nprocs_(nprocs),
      cells_(static_cast<std::size_t>(nsteps) * static_cast<std::size_t>(nprocs),
             '.') {}

std::size_t ActivityTrace::cell(int step, int proc) const {
  KALI_CHECK(step >= 0 && step < nsteps_ && proc >= 0 && proc < nprocs_,
             "activity trace cell out of range");
  return static_cast<std::size_t>(step) * static_cast<std::size_t>(nprocs_) +
         static_cast<std::size_t>(proc);
}

void ActivityTrace::mark(int step, int proc, char symbol) {
  cells_[cell(step, proc)] = symbol;
}

char ActivityTrace::at(int step, int proc) const {
  return cells_[cell(step, proc)];
}

int ActivityTrace::count(int step, char symbol) const {
  int n = 0;
  for (int p = 0; p < nprocs_; ++p) {
    n += at(step, p) == symbol ? 1 : 0;
  }
  return n;
}

int ActivityTrace::active_count(int step) const {
  return nprocs_ - count(step, '.');
}

std::string ActivityTrace::render(const std::vector<std::string>& step_labels) const {
  std::ostringstream os;
  os << "          procs: ";
  for (int p = 0; p < nprocs_; ++p) {
    os << (p % 10);
  }
  os << '\n';
  for (int s = 0; s < nsteps_; ++s) {
    std::string label =
        s < static_cast<int>(step_labels.size()) ? step_labels[static_cast<std::size_t>(s)] : ("step " + std::to_string(s));
    label.resize(16, ' ');
    os << label << ' ';
    for (int p = 0; p < nprocs_; ++p) {
      os << at(s, p);
    }
    os << '\n';
  }
  return os.str();
}

// --- EventLog ---------------------------------------------------------------

EventLog::EventLog(int nprocs) : nprocs_(nprocs) {
  KALI_CHECK(nprocs >= 1, "EventLog needs at least one rank");
  shards_.resize(static_cast<std::size_t>(nprocs) + 1);
}

std::size_t EventLog::shard_index(int actor) const {
  KALI_CHECK(actor >= kMachineActor && actor < nprocs_,
             "EventLog: actor out of range");
  return actor == kMachineActor ? static_cast<std::size_t>(nprocs_)
                                : static_cast<std::size_t>(actor);
}

void EventLog::send(int actor, int dst, const Message& m) {
  push(actor, {.kind = Kind::kSend, .peer = dst, .tag = m.tag,
               .epoch = m.epoch, .n = m.seq, .bytes = m.size_bytes()});
}

void EventLog::match(int actor, int src, std::uint64_t seq) {
  push(actor, {.kind = Kind::kMatch, .peer = src, .n = seq});
}

void EventLog::recv(int actor, const Message& m, std::size_t bytes,
                    std::uint32_t epoch) {
  push(actor, {.kind = Kind::kRecv, .peer = m.src, .tag = m.tag,
               .epoch = epoch, .n = m.seq, .bytes = bytes});
}

void EventLog::park(int actor, std::uint64_t park_seq) {
  push(actor, {.kind = Kind::kPark, .n = park_seq});
}

void EventLog::wake(int actor, int target, std::uint64_t park_seq) {
  push(actor, {.kind = Kind::kWake, .peer = target, .n = park_seq});
}

void EventLog::woken(int actor, std::uint64_t park_seq) {
  push(actor, {.kind = Kind::kWoken, .n = park_seq});
}

void EventLog::read(int actor, HbObj obj, int owner) {
  push(actor, {.kind = Kind::kRead, .obj = obj, .peer = owner});
}

void EventLog::write(int actor, HbObj obj, int owner) {
  push(actor, {.kind = Kind::kWrite, .obj = obj, .peer = owner});
}

void EventLog::mark(int actor, int step, int column, char symbol) {
  push(actor,
       {.kind = Kind::kMark, .symbol = symbol, .peer = column, .tag = step});
}

void EventLog::write_trace(std::ostream& os) const {
  os << "kali-trace 1 " << nprocs_ << '\n';
  for (int r = 0; r < nprocs_; ++r) {
    for (const Event& e : events(r)) {
      if (e.kind == Kind::kSend || e.kind == Kind::kRecv) {
        os << (e.kind == Kind::kSend ? 'S' : 'R') << ' ' << r << ' ' << e.peer
           << ' ' << e.tag << ' ' << e.n << ' ' << e.bytes << ' ' << e.epoch
           << '\n';
      }
    }
  }
}

void EventLog::write_hb(std::ostream& os) const {
  os << "kali-hb 1 " << nprocs_ << "\n";
  for (int s = 0; s <= nprocs_; ++s) {
    const int actor = s == nprocs_ ? kMachineActor : s;
    std::uint64_t aseq = 0;  // actor-local sequence of the written lines
    for (const Event& e : events(actor)) {
      const char* name = kHbNames[static_cast<std::size_t>(e.kind)];
      if (name == nullptr) {
        continue;
      }
      os << name << ' ' << actor << ' ' << aseq++;
      switch (e.kind) {
        case Kind::kSend:
        case Kind::kMatch:
          // The edge, then the mailbox insert (send) or removal (match).
          os << ' ' << e.peer << ' ' << e.n << "\nw " << actor << ' '
             << aseq++ << " mbox:" << (e.kind == Kind::kSend ? e.peer : actor);
          break;
        case Kind::kWake:
          os << ' ' << e.peer << ' ' << e.n;
          break;
        case Kind::kRead:
        case Kind::kWrite:
          os << ' ' << kObjNames[static_cast<std::size_t>(e.obj)] << ':'
             << e.peer;
          break;
        default:  // park, woken: one counter
          os << ' ' << e.n;
          break;
      }
      os << "\n";
    }
  }
}

ActivityTrace EventLog::activity(int nsteps, int ncols) const {
  ActivityTrace t(nsteps, ncols);
  for (int r = 0; r < nprocs_; ++r) {
    for (const Event& e : events(r)) {
      if (e.kind == Kind::kMark) {
        t.mark(e.tag, e.peer, e.symbol);
      }
    }
  }
  return t;
}

const std::vector<EventLog::Event>& EventLog::events(int actor) const {
  return shards_[shard_index(actor)];
}

std::size_t EventLog::total_events() const {
  std::size_t n = 0;
  for (const auto& s : shards_) {
    n += s.size();
  }
  return n;
}

}  // namespace kali

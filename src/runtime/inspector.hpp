// Inspector/executor gather for irregular read patterns.
//
// The paper (§2) notes that when the compiler cannot analyse an access
// pattern statically, it "must generate runtime code which will gather such
// information on the fly" (ref [17]; C. Koelbel's thesis — the PARTI/Kali
// scheme).  GatherPlan is that runtime code: an *inspector* pass records
// which global indices each processor wants, builds a reusable
// communication schedule, and the *executor* replays it cheaply every
// iteration.  Both passes are pairwise exchanges over the view, peers
// named by its arithmetic (rank_at), begun in the machine-wide round order
// of detail::exchange_begin (machine/schedule.hpp) like every other dense
// exchange in the runtime and finished by its one batched receive; their
// tags are registered in the runtime band of machine/message.hpp.
//
// Pairs with nothing to say are skipped entirely: the inspector
// all_gathers a tiny presence matrix (one byte per peer pair) so both
// sides of every empty request list agree to drop the request *and* data
// messages for that pair — irregular patterns with locality then cost
// O(active pairs) messages instead of O(P²).  The per-tag send/recv
// ledgers (MachineStats::sent_msgs/recv_msgs) are how the tests prove the
// skip drops only messages that would have carried nothing.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "machine/collectives.hpp"
#include "machine/schedule.hpp"
#include "runtime/dist_array.hpp"

namespace kali {

class GatherPlan {
 public:
  GatherPlan() = default;

  /// Inspector: collective over A's view.  `wants` lists the global indices
  /// this member will read (duplicates allowed, any order).
  template <class T>
  static GatherPlan build(const DistArray1<T>& A, std::span<const int> wants) {
    GatherPlan plan;
    if (!A.participating()) {
      return plan;
    }
    Context& ctx = A.context();
    plan.view_ = A.view();
    plan.self_pi_ =
        static_cast<std::size_t>(A.view().linear_index_of(ctx.rank()));
    plan.n_wants_ = wants.size();

    const auto np = static_cast<std::size_t>(A.view().count());
    std::vector<std::vector<int>> requests(np);   // indices I ask from peer
    std::vector<std::vector<std::size_t>> slots(np);  // their spots in `wants`
    for (std::size_t w = 0; w < wants.size(); ++w) {
      const int g = wants[w];
      KALI_CHECK(g >= 0 && g < A.extent(0), "gather index out of range");
      const int owner_coord = A.map(0).owner(g);
      const int owner = A.view().rank_of({owner_coord, 0, 0});
      const auto pi = static_cast<std::size_t>(A.view().linear_index_of(owner));
      requests[pi].push_back(g);
      slots[pi].push_back(w);
    }
    ctx.compute(static_cast<double>(wants.size()));  // inspector index math

    // Presence matrix: one byte per peer saying "I will request from you",
    // all_gathered in view order, so matrix row j is member j's row.  One
    // tiny collective buys both endpoints of every empty pair certain
    // agreement to skip it — without it each pair would have to exchange
    // its emptiness, which is the message we are deleting.
    std::vector<std::uint8_t> presence(np, 0);
    for (std::size_t pi = 0; pi < np; ++pi) {
      presence[pi] = (pi != plan.self_pi_ && !requests[pi].empty()) ? 1 : 0;
    }
    const std::vector<std::uint8_t> matrix = all_gather(
        ctx, A.view(), std::span<const std::uint8_t>(presence));

    // Exchange the non-empty request lists pairwise (self handled locally).
    plan.send_indices_.assign(np, {});
    std::vector<std::pair<int, std::size_t>> out;
    std::vector<std::pair<int, std::size_t>> in;
    for (std::size_t pi = 0; pi < np; ++pi) {
      if (pi == plan.self_pi_) {
        plan.send_indices_[pi] = requests[pi];  // local "sends" to myself
        continue;
      }
      if (presence[pi] != 0) {
        out.emplace_back(plan.peer(pi), pi);
      }
      if (matrix[pi * np + plan.self_pi_] != 0) {
        in.emplace_back(plan.peer(pi), pi);
      }
    }
    detail::exchange_begin<int>(
        ctx, kTagInspReq, std::move(out), std::move(in),
        [&](std::size_t pi) { return std::span<const int>(requests[pi]); },
        [&](std::size_t pi, std::vector<int> idxs) {
          plan.send_indices_[pi] = std::move(idxs);
          return 0.0;  // the inspector's index math is charged above
        })
        .finish();
    plan.recv_slots_ = std::move(slots);
    return plan;
  }

  /// Executor: fetch the values for the recorded indices; out[i] corresponds
  /// to wants[i] of the inspector call.  Reusable across iterations as long
  /// as A's distribution is unchanged (values may change freely).
  template <class T>
  std::vector<T> execute(const DistArray1<T>& A) const {
    std::vector<T> result(n_wants_);
    if (!A.participating()) {
      return result;
    }
    Context& ctx = A.context();
    const std::size_t np = send_indices_.size();

    // Only pairs with traffic: send_indices_[pi] is non-empty exactly when
    // peer pi's request list reached us in the inspector (their presence
    // bit), and recv_slots_[pi] exactly when we requested from pi — the two
    // sides of each skipped pair agreed on emptiness at plan build.
    std::vector<std::pair<int, std::size_t>> out;
    std::vector<std::pair<int, std::size_t>> in;
    for (std::size_t pi = 0; pi < np; ++pi) {
      if (pi == self_pi_) {
        continue;
      }
      if (!send_indices_[pi].empty()) {
        out.emplace_back(peer(pi), pi);
      }
      if (!recv_slots_[pi].empty()) {
        in.emplace_back(peer(pi), pi);
      }
    }
    std::vector<T> buf;
    double packed = 0;
    PendingExchange ex = detail::exchange_begin<T>(
        ctx, kTagInspData, std::move(out), std::move(in),
        [&](std::size_t pi) {
          buf.clear();
          for (int g : send_indices_[pi]) {
            buf.push_back(A.at({g}));
          }
          packed += static_cast<double>(buf.size());
          return std::span<const T>(buf);
        },
        [&](std::size_t pi, const std::vector<T>& vals) {
          const auto& spots = recv_slots_[pi];
          KALI_CHECK(vals.size() == spots.size(), "executor size mismatch");
          for (std::size_t k = 0; k < spots.size(); ++k) {
            result[spots[k]] = vals[k];
          }
          return static_cast<double>(spots.size());
        });
    ctx.compute(packed);
    // Self-requests are local copies inside the wire window, charged like
    // a peer unpack.
    if (self_pi_ < np) {
      const auto& spots = recv_slots_[self_pi_];
      for (std::size_t k = 0; k < spots.size(); ++k) {
        result[spots[k]] = A.at({send_indices_[self_pi_][k]});
      }
      ctx.compute(static_cast<double>(spots.size()));
    }
    ex.finish();
    return result;
  }

  [[nodiscard]] std::size_t want_count() const { return n_wants_; }

  /// Total values this member must ship to peers per execution (diagnostic).
  [[nodiscard]] std::size_t send_volume() const {
    std::size_t n = 0;
    for (std::size_t pi = 0; pi < send_indices_.size(); ++pi) {
      if (pi != self_pi_) {
        n += send_indices_[pi].size();
      }
    }
    return n;
  }

 private:
  /// Machine rank of the member at view index `pi`.
  [[nodiscard]] int peer(std::size_t pi) const {
    return view_.rank_at(static_cast<int>(pi));
  }

  ProcView view_;
  std::size_t self_pi_ = 0;  // this member's view index
  std::size_t n_wants_ = 0;
  std::vector<std::vector<int>> send_indices_;        // per peer: globals to send
  std::vector<std::vector<std::size_t>> recv_slots_;  // per peer: slots in wants
};

}  // namespace kali

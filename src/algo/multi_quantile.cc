#include "algo/multi_quantile.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace wsnq {

MultiIqProtocol::MultiIqProtocol(std::vector<int64_t> ks, int64_t range_min,
                                 int64_t range_max, const WireFormat& wire,
                                 const Options& options)
    : ks_(std::move(ks)),
      range_min_(range_min),
      range_max_(range_max),
      wire_(wire),
      options_(options) {
  WSNQ_CHECK(!ks_.empty());
  for (size_t i = 0; i < ks_.size(); ++i) {
    WSNQ_CHECK_GE(ks_[i], 1);
    if (i > 0) WSNQ_CHECK_LT(ks_[i - 1], ks_[i]);
  }
  states_.resize(ks_.size());
  for (size_t i = 0; i < ks_.size(); ++i) states_[i].k = ks_[i];
}

void MultiIqProtocol::Initialize(Network* net,
                                 const std::vector<int64_t>& values) {
  // One k-limited collection up to the largest tracked rank initializes
  // every rank at once.
  net->FloodFromRoot(wire_.counter_bits);
  const std::vector<int64_t> collected =
      CollectKSmallest(net, values, ks_.back(), wire_, &ws_);
  WSNQ_CHECK_GE(static_cast<int64_t>(collected.size()), ks_.back());
  for (RankState& state : states_) {
    state.filter = collected[static_cast<size_t>(state.k - 1)];
    state.counts =
        CountsFromCollection(collected, state.filter, net->num_sensors());
    int64_t xi = 1;
    if (state.k >= 2) {
      const double spread = static_cast<double>(
          collected[static_cast<size_t>(state.k - 1)] - collected[0]);
      xi = std::max<int64_t>(
          1, static_cast<int64_t>(std::llround(
                 options_.init_c * spread / static_cast<double>(state.k))));
    }
    state.xi_l = -xi;
    state.xi_r = xi;
  }
  // Filter broadcast: (v_k, xi) tuple per rank.
  net->FloodFromRoot(static_cast<int64_t>(ks_.size()) * 2 *
                     wire_.value_bits);
}

void MultiIqProtocol::RunRound(Network* net,
                               const std::vector<int64_t>& values_by_vertex,
                               int64_t round) {
  refinements_ = 0;
  // Round 0, or the routing tree changed under us (fault-driven repair):
  // rebuild the root state rather than miscount over a stale topology.
  if (round == 0 || tree_epoch_ != net->tree_epoch()) {
    tree_epoch_ = net->tree_epoch();
    Initialize(net, values_by_vertex);
    prev_values_ = values_by_vertex;
    return;
  }
  WSNQ_CHECK_EQ(prev_values_.size(), values_by_vertex.size());

  // --- Shared validation convergecast ------------------------------------
  // aggs[v * m + j] / windows.Row(v, j): rank j's aggregate and window
  // multiset of v's subtree. The window slabs are independent of the
  // collection rows, so the per-rank refinements issued below can run
  // while the root windows are still being consumed.
  const size_t m = ks_.size();
  const size_t vertices = static_cast<size_t>(net->num_vertices());
  std::vector<ValidationAgg>& aggs = ws_.PrepareAggRows(vertices, m);
  SlabRows<int64_t>& windows = ws_.windows();
  windows.Fit(net->tree(), /*stride=*/1, /*ranks=*/m);
  struct Ops {
    MultiIqProtocol* self;
    Network* net;
    const std::vector<int64_t>& values;
    std::vector<ValidationAgg>& aggs;
    SlabRows<int64_t>& windows;
    size_t m;

    WaveSend Process(int v, WaveLane& /*lane*/) {
      const size_t base = static_cast<size_t>(v) * m;
      const auto children = net->tree().children[static_cast<size_t>(v)];
      int64_t payload = static_cast<int64_t>(m);  // per-rank presence bitmap
      int64_t window_values = 0;
      bool any = false;
      for (size_t j = 0; j < m; ++j) {
        ValidationAgg& agg = aggs[base + j];
        agg = ValidationAgg{};
        int64_t* window = windows.row(v, j);
        size_t len = 0;
        for (int child : children) {
          agg.Merge(aggs[static_cast<size_t>(child) * m + j]);
          // Windows are multisets the root sorts: rows concatenate, and
          // the first child's row already starts where v's does.
          const std::span<const int64_t> theirs = windows.Row(child, j);
          if (theirs.data() != window + len) {
            std::copy(theirs.begin(), theirs.end(), window + len);
          }
          len += theirs.size();
        }
        if (!net->is_root(v)) {
          const size_t i = static_cast<size_t>(v);
          const RankState& state = self->states_[j];
          agg.AddTransition(
              ClassifyThreshold(self->prev_values_[i], state.filter),
              ClassifyThreshold(values[i], state.filter), values[i]);
          if (values[i] >= state.filter + state.xi_l &&
              values[i] <= state.filter + state.xi_r &&
              values[i] != state.filter) {
            window[len++] = values[i];
          }
        }
        windows.len(v, j) = len;
        if (!agg.empty()) {
          payload += 4 * self->wire_.counter_bits +
                     (agg.has_hint && self->options_.use_hints
                          ? self->wire_.value_bits
                          : 0);
          any = true;
        }
        if (len > 0) {
          payload += static_cast<int64_t>(len) * self->wire_.value_bits;
          window_values += static_cast<int64_t>(len);
          any = true;
        }
      }
      WaveSend send;
      if (any) {
        send.payload_bits = payload;
        send.value_count = window_values;
      }
      return send;
    }
    void OnLost(int v) {
      const size_t base = static_cast<size_t>(v) * m;
      for (size_t j = 0; j < m; ++j) {
        aggs[base + j] = ValidationAgg{};
        windows.len(v, j) = 0;
      }
    }
  };
  Ops ops{this, net, values_by_vertex, aggs, windows, m};
  RunConvergecastWave(net, ops);
  prev_values_ = values_by_vertex;

  // --- Per-rank resolution -------------------------------------------------
  const int root = net->root();
  const size_t root_base = static_cast<size_t>(root) * m;
  std::vector<int64_t> new_filters(m);
  bool any_changed = false;
  for (size_t j = 0; j < m; ++j) {
    const std::span<int64_t> window(windows.row(root, j), windows.len(root, j));
    std::sort(window.begin(), window.end());
    const int64_t q = ResolveRank(net, values_by_vertex, &states_[j], window,
                                  aggs[root_base + j]);
    new_filters[j] = q;
    any_changed |= (q != states_[j].filter);
  }

  // One filter broadcast carries every changed rank.
  if (any_changed) {
    int64_t changed = 0;
    for (size_t j = 0; j < m; ++j) {
      changed += (new_filters[j] != states_[j].filter);
    }
    net->FloodFromRoot(changed * (8 + wire_.value_bits));
  }
  for (size_t j = 0; j < m; ++j) {
    PushDelta(&states_[j], new_filters[j] - states_[j].filter);
    states_[j].filter = new_filters[j];
  }
}

int64_t MultiIqProtocol::ResolveRank(Network* net,
                                     const std::vector<int64_t>& values,
                                     RankState* state,
                                     std::span<const int64_t> window,
                                     const ValidationAgg& validation) {
  const int64_t n = net->num_sensors();
  const int64_t k = state->k;
  const int64_t v_old = state->filter;
  ApplyCounters(validation, n, &state->counts);
  RootCounts& counts = state->counts;

  if (CountsValid(counts, k)) return v_old;

  if (counts.l >= k) {  // moved down (§4.2.2)
    const int64_t a_below = std::count_if(
        window.begin(), window.end(),
        [&](int64_t x) { return x < v_old; });
    if (counts.l - a_below < k) {
      const int64_t idx = a_below - (counts.l - k) - 1;
      WSNQ_CHECK_GE(idx, 0);
      WSNQ_CHECK_LT(idx, a_below);
      const int64_t q = window[static_cast<size_t>(idx)];
      counts.e = std::count(window.begin(), window.end(), q);
      counts.l = (counts.l - a_below) +
                 std::count_if(window.begin(), window.end(),
                               [&](int64_t x) { return x < q; });
      counts.g = n - counts.l - counts.e;
      return q;
    }
    const int64_t f1 = counts.l - k - a_below + 1;
    const int64_t hi = v_old + state->xi_l - 1;
    int64_t lo = range_min_;
    if (options_.use_hints && validation.has_hint) {
      const int64_t d = std::max(v_old - validation.min_changed,
                                 validation.max_changed - v_old);
      lo = std::max(range_min_, v_old - d);
    }
    net->FloodFromRoot(wire_.fcount_bits + 2 * wire_.bound_bits);
    const std::vector<int64_t> r = TopFConvergecast(
        net, values, lo, hi, f1, /*largest=*/true, wire_, &ws_);
    ++refinements_;
    WSNQ_CHECK_GE(static_cast<int64_t>(r.size()), f1);
    const int64_t q = r[r.size() - static_cast<size_t>(f1)];
    const int64_t below_window = counts.l - a_below;
    counts.e = std::count(r.begin(), r.end(), q);
    counts.l = below_window -
               std::count_if(r.begin(), r.end(),
                             [&](int64_t x) { return x >= q; });
    counts.g = n - counts.l - counts.e;
    return q;
  }

  // moved up
  const int64_t a_above = std::count_if(
      window.begin(), window.end(), [&](int64_t x) { return x > v_old; });
  if (counts.l + counts.e + a_above >= k) {
    const int64_t rank_in_gt = k - counts.l - counts.e;
    const int64_t idx =
        static_cast<int64_t>(window.size()) - a_above + rank_in_gt - 1;
    WSNQ_CHECK_GE(idx, 0);
    WSNQ_CHECK_LT(idx, static_cast<int64_t>(window.size()));
    const int64_t q = window[static_cast<size_t>(idx)];
    const int64_t below_gt = counts.l + counts.e;
    counts.e = std::count(window.begin(), window.end(), q);
    counts.l = below_gt + std::count_if(window.begin(), window.end(),
                                        [&](int64_t x) {
                                          return x > v_old && x < q;
                                        });
    counts.g = n - counts.l - counts.e;
    return q;
  }
  const int64_t f2 = k - (counts.l + counts.e) - a_above;
  const int64_t lo = v_old + state->xi_r + 1;
  int64_t hi = range_max_;
  if (options_.use_hints && validation.has_hint) {
    const int64_t d = std::max(v_old - validation.min_changed,
                               validation.max_changed - v_old);
    hi = std::min(range_max_, v_old + d);
  }
  net->FloodFromRoot(wire_.fcount_bits + 2 * wire_.bound_bits);
  const std::vector<int64_t> r = TopFConvergecast(
      net, values, lo, hi, f2, /*largest=*/false, wire_, &ws_);
  ++refinements_;
  WSNQ_CHECK_GE(static_cast<int64_t>(r.size()), f2);
  const int64_t q = r[static_cast<size_t>(f2 - 1)];
  const int64_t below_region = counts.l + counts.e + a_above;
  counts.e = std::count(r.begin(), r.end(), q);
  counts.l = below_region + std::count_if(r.begin(), r.end(),
                                          [&](int64_t x) { return x < q; });
  counts.g = n - counts.l - counts.e;
  return q;
}

void MultiIqProtocol::PushDelta(RankState* state, int64_t delta) {
  state->deltas.push_back(delta);
  while (static_cast<int>(state->deltas.size()) > options_.m - 1) {
    state->deltas.pop_front();
  }
  int64_t lo = 0, hi = 0;
  for (int64_t d : state->deltas) {
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  state->xi_l = lo;
  state->xi_r = hi;
}

}  // namespace wsnq

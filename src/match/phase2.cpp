#include "match/phase2.hpp"

#include <algorithm>
#include <bit>
#include <set>
#include <span>
#include <utility>

#include "match/verify.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

namespace subg {

namespace {
/// Relabel base: devices restate their type each pass, nets have no
/// trustworthy invariant (an external net's host degree differs from its
/// pattern degree), so they start from nothing (paper Table 1: "D3: A = n +
/// sKV" vs "N2: B = sA").
Label base_label(const CircuitGraph& graph, Vertex v) {
  return graph.is_device(v) ? graph.initial_label(v) : kNoLabel;
}

/// Heterogeneous comparator for binary-searching the flat (label, member)
/// census by label.
struct LabelLess {
  bool operator()(const std::pair<Label, std::uint32_t>& a, Label b) const {
    return a.first < b;
  }
  bool operator()(Label a, const std::pair<Label, std::uint32_t>& b) const {
    return a < b.first;
  }
};
}  // namespace

Phase2Verifier::Phase2Verifier(const CircuitGraph& pattern,
                               const CircuitGraph& host, Phase2Options options)
    : s_(pattern), g_(host), options_(options) {
  special_image_.assign(s_.vertex_count(), kInvalidVertex);
  host_fixed_label_.assign(g_.vertex_count(), kNoLabel);

  // Resolve pattern globals to same-named host nets (paper §IV.A: special
  // signals mean the same thing in both circuits, so they match by name;
  // the host need not have marked the net global itself). An unused
  // (degree-0) pattern global places no constraint.
  const Netlist& pnl = s_.netlist();
  const Netlist& hnl = g_.netlist();
  for (Vertex v = 0; v < s_.vertex_count(); ++v) {
    if (!s_.is_special(v)) {
      ++matchable_total_;
      continue;
    }
    const std::string& name = pnl.net_name(s_.net_of(v));
    auto hn = hnl.find_net(name);
    if (!hn) {
      if (s_.degree(v) > 0) {
        globals_resolved_ = false;
        SUBG_WARN("pattern global net '" << name
                                         << "' has no same-named net in host");
      }
      continue;
    }
    special_image_[v] = g_.vertex_of(*hn);
    host_fixed_label_[g_.vertex_of(*hn)] = s_.initial_label(v);
  }

  // Signature profiles for the prefilter. Rail pins are skipped: they bind
  // by name, and leaving the host's rail pins as unconstrained "extra"
  // entries in the matching below only weakens the filter — never makes it
  // unsound.
  profile_.resize(s_.vertex_count());
  for (Vertex v = 0; v < s_.vertex_count(); ++v) {
    if (s_.is_special(v)) continue;
    PinProfile& p = profile_[v];
    if (s_.is_device(v)) {
      for (const Vertex to : s_.neighbors(v)) {
        if (s_.is_special(to)) continue;
        const auto d = static_cast<std::uint32_t>(s_.degree(to));
        if (pnl.is_port(s_.net_of(to))) {
          p.lower.push_back(d);
        } else {
          p.exact.push_back(d);
        }
      }
      std::sort(p.exact.begin(), p.exact.end());
      std::sort(p.lower.begin(), p.lower.end());
    } else {
      p.degree = static_cast<std::uint32_t>(s_.degree(v));
      p.is_port = pnl.is_port(s_.net_of(v));
      for (const Vertex to : s_.neighbors(v)) {
        p.nbr_labels.push_back(s_.initial_label(to));
      }
      std::sort(p.nbr_labels.begin(), p.nbr_labels.end());
    }
  }
}

Label Phase2Verifier::fresh_label(State& st) {
  Label l;
  do {
    l = st.rng();
  } while (l == kNoLabel);
  return l;
}

// --- live-slot bitset ------------------------------------------------------

void Phase2Verifier::live_push(State& st) {
  const std::size_t i = st.slots.size() - 1;
  if (i % 64 == 0) st.live.push_back(0);
  st.live[i / 64] |= std::uint64_t{1} << (i % 64);
}

void Phase2Verifier::live_refresh(State& st, std::uint32_t i) {
  const Slot& slot = st.slots[i];
  const std::uint64_t bit = std::uint64_t{1} << (i % 64);
  if (!slot.excluded && slot.matched_to == kInvalidVertex) {
    st.live[i / 64] |= bit;
  } else {
    st.live[i / 64] &= ~bit;
  }
}

void Phase2Verifier::live_shrink(State& st, std::size_t slot_count) {
  st.live.resize((slot_count + 63) / 64);
  if (slot_count % 64 != 0) {
    // Clear the ghost bits of truncated slots in the tail word so bitset
    // equality (and the set-bit iteration) stays canonical.
    st.live.back() &= (std::uint64_t{1} << (slot_count % 64)) - 1;
  }
}

bool Phase2Verifier::live_test(const State& st, std::size_t i) {
  return (st.live[i / 64] >> (i % 64)) & 1;
}

// --- trail-journaled mutators ----------------------------------------------

void Phase2Verifier::set_label_s(State& st, Vertex v, Label l) {
  if (st.label_s[v] == l) return;
  if (trail_depth_ > 0) {
    trail_.push_back({TrailEntry::Kind::kLabelS, v, st.label_s[v]});
  }
  st.label_s[v] = l;
}

void Phase2Verifier::set_considered_s(State& st, Vertex v) {
  if (st.considered_s[v]) return;
  if (trail_depth_ > 0) {
    trail_.push_back({TrailEntry::Kind::kConsideredS, v, 0});
  }
  st.considered_s[v] = true;
}

void Phase2Verifier::set_safe_s(State& st, Vertex v, bool safe) {
  if (st.safe_s[v] == safe) return;
  if (trail_depth_ > 0) {
    trail_.push_back({TrailEntry::Kind::kSafeS, v, safe ? 0u : 1u});
  }
  st.safe_s[v] = safe;
}

void Phase2Verifier::set_matched_s(State& st, Vertex v, Vertex g) {
  if (st.matched_s[v] == g) return;
  if (trail_depth_ > 0) {
    trail_.push_back({TrailEntry::Kind::kMatchedS, v, st.matched_s[v]});
  }
  st.matched_s[v] = g;
}

void Phase2Verifier::set_slot_label(State& st, std::uint32_t i, Label l) {
  if (st.slots[i].label == l) return;
  if (trail_depth_ > 0) {
    trail_.push_back({TrailEntry::Kind::kSlotLabel, i, st.slots[i].label});
  }
  st.slots[i].label = l;
}

void Phase2Verifier::set_slot_safe(State& st, std::uint32_t i, bool safe) {
  if (st.slots[i].safe == safe) return;
  if (trail_depth_ > 0) {
    trail_.push_back({TrailEntry::Kind::kSlotSafe, i, safe ? 0u : 1u});
  }
  st.slots[i].safe = safe;
}

void Phase2Verifier::set_slot_excluded(State& st, std::uint32_t i,
                                       bool excluded) {
  if (st.slots[i].excluded == excluded) return;
  if (trail_depth_ > 0) {
    trail_.push_back({TrailEntry::Kind::kSlotExcluded, i, excluded ? 0u : 1u});
  }
  st.slots[i].excluded = excluded;
  live_refresh(st, i);
}

void Phase2Verifier::set_slot_matched_to(State& st, std::uint32_t i,
                                         Vertex s) {
  if (st.slots[i].matched_to == s) return;
  if (trail_depth_ > 0) {
    trail_.push_back(
        {TrailEntry::Kind::kSlotMatchedTo, i, st.slots[i].matched_to});
  }
  st.slots[i].matched_to = s;
  live_refresh(st, i);
}

Phase2Verifier::TrailMark Phase2Verifier::trail_mark(const State& st) const {
  return TrailMark{trail_.size(),       st.slots.size(), st.matched_count,
                   st.safe_unmatched,   st.passes,       st.rng};
}

void Phase2Verifier::undo_to(State& st, const TrailMark& mark) {
  std::size_t reverted = trail_.size() - mark.entries;
  for (std::size_t i = trail_.size(); i > mark.entries; --i) {
    const TrailEntry& e = trail_[i - 1];
    switch (e.kind) {
      case TrailEntry::Kind::kLabelS:
        st.label_s[e.index] = e.old_value;
        break;
      case TrailEntry::Kind::kConsideredS:
        st.considered_s[e.index] = false;
        break;
      case TrailEntry::Kind::kSafeS:
        st.safe_s[e.index] = e.old_value != 0;
        break;
      case TrailEntry::Kind::kMatchedS:
        st.matched_s[e.index] = static_cast<Vertex>(e.old_value);
        break;
      case TrailEntry::Kind::kSlotLabel:
        st.slots[e.index].label = e.old_value;
        break;
      case TrailEntry::Kind::kSlotSafe:
        st.slots[e.index].safe = e.old_value != 0;
        break;
      case TrailEntry::Kind::kSlotExcluded:
        st.slots[e.index].excluded = e.old_value != 0;
        live_refresh(st, e.index);
        break;
      case TrailEntry::Kind::kSlotMatchedTo:
        st.slots[e.index].matched_to = static_cast<Vertex>(e.old_value);
        live_refresh(st, e.index);
        break;
    }
  }
  trail_.resize(mark.entries);
  // Slots only grow inside a branch, so rollback truncates; entries above
  // were undone first, while their indices were still in range.
  reverted += st.slots.size() - mark.slots;
  for (std::size_t i = st.slots.size(); i > mark.slots; --i) {
    st.slot_of.erase(st.slots[i - 1].vertex);
  }
  st.slots.resize(mark.slots);
  live_shrink(st, mark.slots);
  st.matched_count = mark.matched_count;
  st.safe_unmatched = mark.safe_unmatched;
  st.passes = mark.passes;
  st.rng = mark.rng;
  stats_.trail_undos += reverted;
}

bool Phase2Verifier::states_equal(const State& a, const State& b) {
  return a.label_s == b.label_s && a.considered_s == b.considered_s &&
         a.safe_s == b.safe_s && a.matched_s == b.matched_s &&
         a.matched_count == b.matched_count &&
         a.safe_unmatched == b.safe_unmatched && a.slot_of == b.slot_of &&
         a.slots == b.slots && a.live == b.live && a.rng == b.rng &&
         a.passes == b.passes;
}

// --- neighborhood-signature prefilter --------------------------------------

bool Phase2Verifier::device_compatible(Vertex s, Vertex g) {
  const PinProfile& p = profile_[s];
  if (p.exact.empty() && p.lower.empty()) return true;
  const std::span<const std::uint32_t> hd = g_.sorted_neighbor_degrees(g);
  // Injectively assign every pattern pin requirement to a distinct host pin
  // (extra host pins — e.g. the candidate's rail pins — stay free). Exact
  // requirements first: equal values are interchangeable, so consuming any
  // match preserves feasibility. Then the lower bounds greedily take the
  // smallest remaining value that satisfies them, which is exact for
  // one-sided intervals.
  degree_rem_scratch_.clear();
  std::size_t j = 0;
  for (const std::uint32_t need : p.exact) {
    for (; j < hd.size() && hd[j] < need; ++j) {
      degree_rem_scratch_.push_back(hd[j]);
    }
    if (j >= hd.size() || hd[j] != need) return false;
    ++j;
  }
  for (; j < hd.size(); ++j) degree_rem_scratch_.push_back(hd[j]);
  std::size_t k = 0;
  for (const std::uint32_t need : p.lower) {
    while (k < degree_rem_scratch_.size() && degree_rem_scratch_[k] < need) {
      ++k;
    }
    if (k >= degree_rem_scratch_.size()) return false;
    ++k;
  }
  return true;
}

bool Phase2Verifier::net_compatible(Vertex s, Vertex g) {
  const PinProfile& p = profile_[s];
  if (!net_degree_fits(s, g)) return false;
  host_label_scratch_.clear();
  for (const Vertex to : g_.neighbors(g)) {
    host_label_scratch_.push_back(g_.initial_label(to));
  }
  std::sort(host_label_scratch_.begin(), host_label_scratch_.end());
  // Each pattern pin maps to a distinct host pin on a device of the same
  // type: multiset inclusion of the neighbor-type sequences.
  std::size_t k = 0;
  for (const Label need : p.nbr_labels) {
    while (k < host_label_scratch_.size() && host_label_scratch_[k] < need) {
      ++k;
    }
    if (k >= host_label_scratch_.size() || host_label_scratch_[k] != need) {
      return false;
    }
    ++k;
  }
  return true;
}

bool Phase2Verifier::signature_ok(Vertex s, Vertex g) {
  if (s_.is_special(s)) return true;
  const std::uint64_t key = (static_cast<std::uint64_t>(s) << 32) | g;
  auto it = compat_cache_.find(key);
  if (it != compat_cache_.end()) {
    // Nogood memo hit: the refutation (or acceptance) was derived earlier
    // in THIS candidate's search — sibling guess branches skip the recheck.
    if (!it->second) ++stats_.nogood_hits;
    return it->second;
  }
  // A type-mismatched pair can never complete (extract_mapping requires the
  // images to preserve device/net kind), so refuting it is exact.
  bool ok = s_.is_device(s) == g_.is_device(g) &&
            (s_.is_device(s) ? device_compatible(s, g)
                             : net_compatible(s, g));
  if (!ok) {
    ++stats_.domain_prunes;
  } else if (options_.pattern_paths != nullptr &&
             options_.host_paths != nullptr &&
             options_.host_paths->refutes(*options_.pattern_paths, s, g,
                                          path_scratch_)) {
    // Supplemental path-label refuter: the pattern anchor owns more closed
    // walks through some tracked net-degree class than the host vertex can
    // supply, so no embedding maps s onto g (analyze.hpp proves soundness).
    ok = false;
    ++stats_.path_label_prunes;
  }
  compat_cache_.emplace(key, ok);
  return ok;
}

// --- forced-pin walk -------------------------------------------------------
//
// Every test below is a necessary condition of verify_instance on a mapping
// that extends the bindings so far, so a domain always holds every image an
// embedding could give the vertex: an empty domain refutes the candidate, a
// singleton is forced, and a walk that binds everything has found the only
// mapping with K↦c.

namespace {
/// Pins of one vertex that reach `to` through coefficient `coeff`.
std::size_t pin_count(std::span<const Vertex> nbrs,
                      std::span<const Label> coeffs, Label coeff, Vertex to) {
  std::size_t n = 0;
  for (std::size_t k = 0; k < nbrs.size(); ++k) {
    if (nbrs[k] == to && coeffs[k] == coeff) ++n;
  }
  return n;
}
}  // namespace

bool Phase2Verifier::walk_enabled(Vertex key) {
  if (!options_.signature_filter || options_.trace != nullptr) return false;
  if (walk_gate_.empty()) walk_gate_.assign(s_.vertex_count(), -1);
  if (walk_gate_[key] < 0) {
    // Self-walk gate: host fanout only adds candidates to a domain, so a
    // walk that gets stuck on the pattern itself gets stuck on every true
    // instance too and would only add its cost.
    Phase2Verifier self(s_, s_);
    SubcircuitInstance unused;
    walk_gate_[key] =
        self.walk(key, key, &unused) == WalkVerdict::kMatched ? 1 : 0;
  }
  return walk_gate_[key] == 1;
}

Phase2Verifier::WalkVerdict Phase2Verifier::walk(Vertex key, Vertex candidate,
                                                 SubcircuitInstance* out) {
  RunOutcome why;
  if (options_.budget.interrupted(&why)) {
    status_.escalate(why, std::string("phase2: ") + to_string(why) +
                              " while verifying a candidate");
    return WalkVerdict::kInterrupted;
  }
  if (walk_image_.empty()) {
    walk_image_.assign(s_.vertex_count(), kInvalidVertex);
    walk_owner_.assign(g_.vertex_count(), kInvalidVertex);
    walk_order_.reserve(matchable_total_);
  }
  for (const Vertex v : walk_order_) {
    walk_owner_[walk_image_[v]] = kInvalidVertex;
    walk_image_[v] = kInvalidVertex;
  }
  walk_order_.clear();

  // The key's own pins are checked first: a candidate whose rail pins or
  // pin nets cannot carry the key's dies before anything is bound.
  if (!walk_fits(key, candidate)) {
    ++stats_.walk_settled;
    return WalkVerdict::kRefuted;
  }
  walk_bind(key, candidate);
  // Worklist: walk_order_ in binding order, devices before nets — a
  // device's domains come from its few pins, a net's from its fanout.
  std::size_t next_device = 0;
  std::size_t next_net = 0;
  while (walk_order_.size() < matchable_total_) {
    Vertex v = kInvalidVertex;
    while (v == kInvalidVertex && next_device < walk_order_.size()) {
      const Vertex u = walk_order_[next_device++];
      if (s_.is_device(u)) v = u;
    }
    while (v == kInvalidVertex && next_net < walk_order_.size()) {
      const Vertex u = walk_order_[next_net++];
      if (s_.is_net(u)) v = u;
    }
    if (v == kInvalidVertex) {
      // Worklist drained with vertices left unbound: no domain was a
      // singleton, so pins alone cannot decide.
      ++stats_.walk_fallbacks;
      return WalkVerdict::kStuck;
    }
    if (!walk_expand(v)) {
      ++stats_.walk_settled;
      return WalkVerdict::kRefuted;
    }
  }

  ++stats_.walk_settled;
  if (!extract_mapping(walk_image_, out)) return WalkVerdict::kRefuted;
  if (!verify_mapping(*out)) {
    ++stats_.verify_failures;
    return WalkVerdict::kRefuted;
  }
  return WalkVerdict::kMatched;
}

bool Phase2Verifier::walk_expand(Vertex v) {
  // A net whose pattern neighbors are all bound has nothing to offer, and
  // its host fanout is never scanned (walk_domain generates from the
  // smallest bound neighbor anyway).
  for (const Vertex x : s_.neighbors(v)) {
    if (s_.is_special(x) || walk_image_[x] != kInvalidVertex) continue;
    Vertex only = kInvalidVertex;
    const std::size_t size = walk_domain(x, &only);
    if (size == 0) return false;
    if (size == 1) walk_bind(x, only);
  }
  return true;
}

std::size_t Phase2Verifier::walk_domain(Vertex x, Vertex* only) const {
  // Every bound neighbor's image must be adjacent to x's image through the
  // same pin class, so any one of them generates a superset of the
  // domain; take the one with the smallest host fanout. Rails never
  // generate: their fanout is the whole host.
  const auto nbrs = s_.neighbors(x);
  const auto coeffs = s_.coefficients(x);
  Vertex from = kInvalidVertex;
  Label coeff = 0;
  for (std::size_t k = 0; k < nbrs.size(); ++k) {
    if (s_.is_special(nbrs[k])) continue;
    const Vertex image = walk_image_[nbrs[k]];
    if (image == kInvalidVertex) continue;
    if (from == kInvalidVertex || g_.degree(image) < g_.degree(from)) {
      from = image;
      coeff = coeffs[k];
    }
  }
  *only = kInvalidVertex;
  if (from == kInvalidVertex) return 2;
  std::size_t size = 0;
  const auto hn = g_.neighbors(from);
  const auto hc = g_.coefficients(from);
  for (std::size_t j = 0; j < hn.size(); ++j) {
    const Vertex y = hn[j];
    if (hc[j] != coeff || y == *only || !walk_fits(x, y)) continue;
    if (++size == 2) return 2;
    *only = y;
  }
  return size;
}

bool Phase2Verifier::walk_fits(Vertex x, Vertex y) const {
  if (!walk_host_free(y)) return false;
  if (s_.is_device(x)) {
    return g_.is_device(y) && g_.initial_label(y) == s_.initial_label(x) &&
           walk_device_pins_fit(x, y);
  }
  return g_.is_net(y) && net_degree_fits(x, y) && walk_net_pins_fit(x, y);
}

bool Phase2Verifier::net_degree_fits(Vertex s, Vertex g) const {
  // Internal pattern nets are induced (final verification enforces it), so
  // their host image must have exactly the pattern degree; ports may fan
  // out further in the host.
  const PinProfile& p = profile_[s];
  const std::size_t hd = g_.degree(g);
  return p.is_port ? hd >= p.degree : hd == p.degree;
}

bool Phase2Verifier::walk_device_pins_fit(Vertex x, Vertex y) const {
  const auto pn = s_.neighbors(x);
  const auto pc = s_.coefficients(x);
  const auto hn = g_.neighbors(y);
  const auto hc = g_.coefficients(y);
  if (pn.size() != hn.size()) return false;
  // Each pattern pin needs a host pin of its class: a bound net's image on
  // as many pins as the pattern uses, an unbound net a free net whose
  // degree fits.
  for (std::size_t k = 0; k < pn.size(); ++k) {
    const Vertex image = walk_image_of(pn[k]);
    if (image != kInvalidVertex) {
      if (pin_count(pn, pc, pc[k], pn[k]) != pin_count(hn, hc, pc[k], image)) {
        return false;
      }
      continue;
    }
    bool found = false;
    for (std::size_t j = 0; j < hn.size() && !found; ++j) {
      found = hc[j] == pc[k] && walk_host_free(hn[j]) &&
              net_degree_fits(pn[k], hn[j]);
    }
    if (!found) return false;
  }
  // Each host pin needs a pattern pin of its class: a rail or a bound net
  // must be the image of one of x's nets, a free net must fit an unbound
  // one.
  for (std::size_t j = 0; j < hn.size(); ++j) {
    const bool free = walk_host_free(hn[j]);
    bool found = false;
    for (std::size_t k = 0; k < pn.size() && !found; ++k) {
      if (pc[k] != hc[j]) continue;
      const Vertex image = walk_image_of(pn[k]);
      found = free ? image == kInvalidVertex && net_degree_fits(pn[k], hn[j])
                   : image == hn[j];
    }
    if (!found) return false;
  }
  return true;
}

bool Phase2Verifier::walk_net_pins_fit(Vertex x, Vertex y) const {
  // A bound device must put as many pins of each class on y as its
  // pattern twin puts on x.
  const auto nbrs = s_.neighbors(x);
  for (std::size_t k = 0; k < nbrs.size(); ++k) {
    const Vertex d = nbrs[k];
    const Vertex e = walk_image_[d];
    if (e == kInvalidVertex || (k > 0 && nbrs[k - 1] == d)) continue;
    const auto dn = s_.neighbors(d);
    const auto dc = s_.coefficients(d);
    const auto en = g_.neighbors(e);
    const auto ec = g_.coefficients(e);
    for (std::size_t i = 0; i < dn.size(); ++i) {
      if (dn[i] == x &&
          pin_count(dn, dc, dc[i], x) != pin_count(en, ec, dc[i], y)) {
        return false;
      }
    }
  }
  return true;
}

void Phase2Verifier::walk_bind(Vertex x, Vertex y) {
  ++stats_.bindings;
  walk_image_[x] = y;
  walk_owner_[y] = x;
  walk_order_.push_back(x);
}

void Phase2Verifier::audit_walk(Vertex key, Vertex candidate,
                                std::size_t limit, WalkVerdict verdict,
                                const SubcircuitInstance& walked) {
  if (verdict != WalkVerdict::kMatched && verdict != WalkVerdict::kRefuted) {
    return;
  }
  // Everything the re-run touches is restored afterwards, so audit builds
  // report the same counters and statuses as release builds. The re-run
  // gets an unlimited Budget; a capped relabel search is no reference.
  const Phase2Stats stats = stats_;
  const RunStatus status = std::exchange(status_, RunStatus{});
  const std::vector<TrailEntry> trail = trail_;
  const std::unordered_map<std::uint64_t, bool> cache = compat_cache_;
  const Budget budget = std::exchange(options_.budget, Budget{});
  std::vector<SubcircuitInstance> relabeled;
  if (limit == 0) {
    if (auto inst = relabel_verify(key, candidate)) {
      relabeled.push_back(std::move(*inst));
    }
  } else {
    relabeled = relabel_enumerate(key, candidate, limit);
  }
  const bool complete = status_.complete();
  stats_ = stats;
  status_ = status;
  trail_ = trail;
  compat_cache_ = cache;
  options_.budget = budget;
  if (!complete) return;
  const bool matched = verdict == WalkVerdict::kMatched;
  SUBG_AUDIT_MSG(relabeled.size() == (matched ? 1u : 0u),
                 "phase2 audit: the forced-pin walk and the relabel search "
                 "disagree on whether the candidate matches");
  if (matched && relabeled.size() == 1) {
    SUBG_AUDIT_MSG(relabeled[0].device_image == walked.device_image &&
                       relabeled[0].net_image == walked.net_image,
                   "phase2 audit: the forced-pin walk and the relabel search "
                   "found different images");
  }
}

// --- search ----------------------------------------------------------------

std::uint32_t Phase2Verifier::ensure_slot(State& st, Vertex g) {
  auto [it, inserted] =
      st.slot_of.try_emplace(g, static_cast<std::uint32_t>(st.slots.size()));
  if (inserted) {
    Slot slot;
    slot.vertex = g;
    st.slots.push_back(slot);
    live_push(st);
  }
  return it->second;
}

void Phase2Verifier::postulate(State& st, Vertex s, Vertex g) {
  SUBG_AUDIT_MSG(!s_.is_special(s),
                 "phase2 audit: special rails match by name, never by "
                 "postulate");
  SUBG_AUDIT_MSG(st.matched_s[s] == kInvalidVertex,
                 "phase2 audit: pattern vertex postulated twice");
  ++stats_.bindings;
  const Label l = fresh_label(st);
  set_label_s(st, s, l);
  set_considered_s(st, s);
  set_safe_s(st, s, true);
  set_matched_s(st, s, g);
  ++st.matched_count;
  SUBG_AUDIT_MSG(st.matched_count <= matchable_total_,
                 "phase2 audit: matched count exceeds the matchable pattern "
                 "vertices");

  const std::uint32_t i = ensure_slot(st, g);
  SUBG_AUDIT_MSG(st.slots[i].matched_to == kInvalidVertex,
                 "phase2 audit: host vertex bound to two pattern vertices");
  set_slot_label(st, i, l);
  set_slot_safe(st, i, true);
  set_slot_excluded(st, i, false);
  set_slot_matched_to(st, i, s);
}

void Phase2Verifier::reset_candidate_scratch() {
  SUBG_AUDIT_MSG(trail_depth_ == 0,
                 "phase2 audit: guess frames leaked across candidates");
  trail_.clear();
  trail_depth_ = 0;
  compat_cache_.clear();
}

bool Phase2Verifier::admit(Vertex key, Vertex candidate) {
  if (!globals_resolved_) return false;
  if (s_.is_device(key) != g_.is_device(candidate)) return false;
  // Cheap pre-check: the candidate must at least share the device type.
  if (s_.is_device(key) &&
      s_.initial_label(key) != g_.initial_label(candidate)) {
    return false;
  }
  reset_candidate_scratch();
  return !options_.signature_filter || signature_ok(key, candidate);
}

std::optional<SubcircuitInstance> Phase2Verifier::verify(Vertex key,
                                                         Vertex candidate) {
  SUBG_FAULT_POINT("phase2");
  ++stats_.candidates_tried;
  if (!admit(key, candidate)) return std::nullopt;
  if (walk_enabled(key)) {
    SubcircuitInstance inst;
    const WalkVerdict verdict = walk(key, candidate, &inst);
    if constexpr (kAuditEnabled) audit_walk(key, candidate, 0, verdict, inst);
    if (verdict == WalkVerdict::kMatched) {
      ++stats_.candidates_matched;
      return inst;
    }
    if (verdict != WalkVerdict::kStuck) return std::nullopt;
  }
  return relabel_verify(key, candidate);
}

std::optional<SubcircuitInstance> Phase2Verifier::relabel_verify(
    Vertex key, Vertex candidate) {
  State st;
  st.label_s.assign(s_.vertex_count(), kNoLabel);
  st.considered_s.assign(s_.vertex_count(), false);
  st.safe_s.assign(s_.vertex_count(), false);
  st.matched_s.assign(s_.vertex_count(), kInvalidVertex);
  st.rng = SplitMix64(options_.seed ^ splitmix64_mix(candidate));
  postulate(st, key, candidate);
  record_trace(st, 0);

  SubcircuitInstance inst;
  if (run(st, 0, &inst) == Outcome::kSuccess) {
    ++stats_.candidates_matched;
    return inst;
  }
  return std::nullopt;
}

std::vector<SubcircuitInstance> Phase2Verifier::enumerate(Vertex key,
                                                          Vertex candidate,
                                                          std::size_t limit) {
  SUBG_FAULT_POINT("phase2");
  ++stats_.candidates_tried;
  std::vector<SubcircuitInstance> found;
  if (limit == 0 || !admit(key, candidate)) return found;
  if (walk_enabled(key)) {
    // A settled walk leaves at most one mapping with K↦c, so there is
    // nothing to deduplicate or fold by symmetry.
    SubcircuitInstance inst;
    const WalkVerdict verdict = walk(key, candidate, &inst);
    if constexpr (kAuditEnabled) {
      audit_walk(key, candidate, limit, verdict, inst);
    }
    if (verdict == WalkVerdict::kMatched) {
      ++stats_.candidates_matched;
      found.push_back(std::move(inst));
      return found;
    }
    if (verdict != WalkVerdict::kStuck) return found;
  }
  return relabel_enumerate(key, candidate, limit);
}

std::vector<SubcircuitInstance> Phase2Verifier::relabel_enumerate(
    Vertex key, Vertex candidate, std::size_t limit) {
  std::vector<SubcircuitInstance> found;
  State st;
  st.label_s.assign(s_.vertex_count(), kNoLabel);
  st.considered_s.assign(s_.vertex_count(), false);
  st.safe_s.assign(s_.vertex_count(), false);
  st.matched_s.assign(s_.vertex_count(), kInvalidVertex);
  st.rng = SplitMix64(options_.seed ^ splitmix64_mix(candidate));
  postulate(st, key, candidate);
  record_trace(st, 0);

  SubcircuitInstance scratch;
  (void)run(st, 0, &scratch, &found, limit);

  // Automorphic branches revisit the same wiring; dedup on the exact
  // (device image, net image) mapping — the position-indexed vectors, NOT
  // sorted value sets — keeping first-found order (deterministic). Keying
  // on sorted sets would silently merge matches that differ only in the
  // assignment of external nets — e.g. the two orientations of a pass
  // transistor cover the same net set {h1, h2} but are distinct mappings.
  std::set<std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>>>
      seen;
  std::vector<SubcircuitInstance> unique;
  // Suppression is pure work-saving: skip it when the budget already
  // expired — an interrupted sweep would otherwise spend unbounded
  // post-deadline time permuting the abandoned completions, and the
  // matcher-level device-set dedup collapses the copies regardless.
  const analyze::Orbits* orbits =
      options_.symmetry_dedup && !options_.budget.interrupted()
          ? options_.pattern_orbits
          : nullptr;
  const std::size_t device_count = s_.netlist().device_count();
  for (SubcircuitInstance& inst : found) {
    std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>> key_map;
    key_map.first.reserve(inst.device_image.size());
    for (DeviceId d : inst.device_image) key_map.first.push_back(d.value);
    key_map.second.reserve(inst.net_image.size());
    for (NetId n : inst.net_image) key_map.second.push_back(n.value);
    if (seen.contains(key_map)) continue;
    // Symmetry-aware dedup (exhaustive, no binding limit): if some pattern
    // automorphism σ turns this mapping into one already recorded, the two
    // cover the same host device set and the matcher-level set dedup would
    // collapse them anyway — suppress the copy here and count it.
    if (orbits != nullptr && !orbits->automorphisms.empty()) {
      bool suppressed = false;
      std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>>
          permuted;
      for (const std::vector<Vertex>& sigma : orbits->automorphisms) {
        permuted.first.assign(inst.device_image.size(), 0);
        for (std::size_t i = 0; i < inst.device_image.size(); ++i) {
          permuted.first[i] = inst.device_image[sigma[i]].value;
        }
        permuted.second.assign(inst.net_image.size(), 0);
        for (std::size_t n = 0; n < inst.net_image.size(); ++n) {
          permuted.second[n] =
              inst.net_image[sigma[device_count + n] - device_count].value;
        }
        if (seen.contains(permuted)) {
          suppressed = true;
          ++stats_.symmetry_skips;
          break;
        }
      }
      if (suppressed) continue;
    }
    seen.insert(std::move(key_map));
    unique.push_back(std::move(inst));
  }
  if (!unique.empty()) ++stats_.candidates_matched;
  return unique;
}

Phase2Verifier::Outcome Phase2Verifier::run(
    State& st, std::size_t depth, SubcircuitInstance* out,
    std::vector<SubcircuitInstance>* sink, std::size_t sink_limit) {
  stats_.max_guess_depth = std::max(stats_.max_guess_depth, depth);
  while (true) {
    if (st.matched_count == matchable_total_) {
      if constexpr (kAuditEnabled) {
        // The matched_count ledger claims a full binding; cross-check it
        // against the actual matched_s contents and verify injectivity
        // (every host vertex used at most once).
        std::set<Vertex> image;
        for (Vertex v = 0; v < s_.vertex_count(); ++v) {
          if (s_.is_special(v)) continue;
          SUBG_AUDIT_MSG(st.matched_s[v] != kInvalidVertex,
                         "phase2 audit: matched count is full but a pattern "
                         "vertex is unbound");
          image.insert(st.matched_s[v]);
        }
        SUBG_AUDIT_MSG(image.size() == matchable_total_,
                       "phase2 audit: pattern-to-host binding is not "
                       "injective");
      }
      if (!extract_mapping(st.matched_s, out)) return Outcome::kFail;
      if (!verify_mapping(*out)) {
        ++stats_.verify_failures;
        return Outcome::kFail;
      }
      if (sink != nullptr) {
        // Enumerate mode: record and pretend failure so the parent guess
        // loop explores the remaining branches.
        sink->push_back(*out);
        return Outcome::kFail;
      }
      return Outcome::kSuccess;
    }
    if (sink != nullptr && sink->size() >= sink_limit) return Outcome::kFail;
    RunOutcome why;
    if (options_.budget.interrupted(&why)) {
      status_.escalate(why, std::string("phase2: ") + to_string(why) +
                                " while verifying a candidate");
      return Outcome::kFail;
    }
    if (st.passes >= options_.max_passes_per_candidate) {
      status_.escalate(RunOutcome::kTruncated,
                       "phase2: pass budget exhausted; candidate rejected "
                       "without a full search");
      SUBG_WARN("phase2: pass budget exhausted; rejecting candidate");
      return Outcome::kFail;
    }

    bool progress = false;
    if (!pass(st, &progress)) return Outcome::kFail;
    if (progress) continue;

    // Stalled: refinement can make no further distinction (symmetric
    // pattern, Fig 5). Guess a match in the most constrained stalled
    // partition and recurse with backtracking.
    if (depth >= options_.max_guess_depth) {
      status_.escalate(RunOutcome::kTruncated,
                       "phase2: guess depth budget exhausted; candidate "
                       "rejected without a full search");
      ++status_.guesses_abandoned;
      SUBG_WARN("phase2: guess depth budget exhausted; rejecting candidate");
      return Outcome::kFail;
    }

    // Candidate domains per pattern label among live host slots: the flat
    // label-sorted census, grouped by equal label — each group is the
    // domain of the pattern partition carrying that label.
    part_g_.clear();
    for (std::size_t w = 0; w < st.live.size(); ++w) {
      std::uint64_t bits = st.live[w];
      while (bits != 0) {
        const auto i =
            static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
        bits &= bits - 1;
        if (st.slots[i].label != kNoLabel) {
          part_g_.emplace_back(st.slots[i].label, i);
        }
      }
    }
    std::stable_sort(part_g_.begin(), part_g_.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });

    Vertex guess_s = kInvalidVertex;
    std::size_t best_size = 0;
    std::size_t best_begin = 0;
    for (Vertex v = 0; v < s_.vertex_count(); ++v) {
      if (s_.is_special(v) || !st.considered_s[v]) continue;
      if (st.matched_s[v] != kInvalidVertex || st.label_s[v] == kNoLabel) continue;
      const auto [lo, hi] = std::equal_range(part_g_.begin(), part_g_.end(),
                                             st.label_s[v], LabelLess{});
      if (lo == hi) {
        // A completed pass guarantees every live pattern partition has a
        // host twin at least as large; an empty domain here means the
        // census is corrupt. Refute deterministically instead of searching
        // on a broken hypothesis.
        SUBG_AUDIT_MSG(false,
                       "phase2 audit: stalled pattern partition has no live "
                       "host twin");
        return Outcome::kFail;
      }
      const auto size = static_cast<std::size_t>(hi - lo);
      if (guess_s == kInvalidVertex || size < best_size) {
        guess_s = v;
        best_size = size;
        best_begin = static_cast<std::size_t>(lo - part_g_.begin());
      }
    }

    std::vector<Vertex> pool;
    if (guess_s != kInvalidVertex) {
      pool.reserve(best_size);
      for (std::size_t k = best_begin; k < best_begin + best_size; ++k) {
        const Vertex gv = st.slots[part_g_[k].second].vertex;
        if (options_.signature_filter && !signature_ok(guess_s, gv)) continue;
        pool.push_back(gv);
      }
    } else {
      // No labeled unmatched pattern vertex: the remaining pattern region is
      // reachable only through a special rail (frontier expansion does not
      // cross rails). Seed it by guessing a device hanging off a rail.
      for (Vertex v = 0; v < s_.device_count() && guess_s == kInvalidVertex;
           ++v) {
        if (st.matched_s[v] != kInvalidVertex) continue;
        for (const Vertex to : s_.neighbors(v)) {
          if (s_.is_special(to) && special_image_[to] != kInvalidVertex) {
            guess_s = v;
            // Pool: same-type host devices on the image rail, unmatched.
            for (const Vertex hv : g_.neighbors(special_image_[to])) {
              if (!g_.is_device(hv)) continue;
              if (g_.initial_label(hv) != s_.initial_label(v)) continue;
              auto sit = st.slot_of.find(hv);
              if (sit != st.slot_of.end()) {
                const Slot& slot = st.slots[sit->second];
                if (slot.excluded || slot.matched_to != kInvalidVertex) continue;
              }
              pool.push_back(hv);
            }
            break;
          }
        }
      }
      if (guess_s == kInvalidVertex) {
        // Disconnected pattern component with no rail anchor: unreachable by
        // refinement. The public matcher rejects such patterns up front.
        return Outcome::kFail;
      }
      std::sort(pool.begin(), pool.end());
      pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
      if (options_.signature_filter) {
        std::erase_if(pool,
                      [&](Vertex gv) { return !signature_ok(guess_s, gv); });
      }
    }

    for (std::size_t pi = 0; pi < pool.size(); ++pi) {
      if (sink != nullptr && sink->size() >= sink_limit) break;
      RunOutcome pool_why;
      if (options_.budget.interrupted(&pool_why)) {
        status_.escalate(pool_why, std::string("phase2: ") +
                                       to_string(pool_why) +
                                       " while exploring guess branches");
        status_.guesses_abandoned += pool.size() - pi;
        break;
      }
      const TrailMark mark = trail_mark(st);
      std::optional<State> audit_snapshot;
      if constexpr (kAuditEnabled) audit_snapshot = st;
      ++trail_depth_;
      ++stats_.guesses;
      postulate(st, guess_s, pool[pi]);
      const Outcome outcome = run(st, depth + 1, out, sink, sink_limit);
      --trail_depth_;
      if (outcome == Outcome::kSuccess) return Outcome::kSuccess;
      ++stats_.backtracks;
      undo_to(st, mark);
      if constexpr (kAuditEnabled) {
        SUBG_AUDIT_MSG(states_equal(st, *audit_snapshot),
                       "phase2 audit: trail undo did not restore the "
                       "pre-guess state");
      }
    }
    return Outcome::kFail;
  }
}

bool Phase2Verifier::pass(State& st, bool* progress) {
  ++st.passes;
  ++stats_.passes;
  if constexpr (kAuditEnabled) {
    for (std::uint32_t i = 0; i < st.slots.size(); ++i) {
      SUBG_AUDIT_MSG(live_test(st, i) ==
                         (!st.slots[i].excluded &&
                          st.slots[i].matched_to == kInvalidVertex),
                     "phase2 audit: live-slot bitset diverged from the slot "
                     "flags");
    }
  }
  // Edge visits this pass (frontier expansion + relabel sums, both sides).
  // Accumulated locally and folded into stats_ once at the end.
  std::size_t ops = 0;

  // --- 1. Frontier expansion: neighbors of safe vertices join the search.
  // Special rails never expand the frontier (they would drag their whole
  // host fanout in); their labels still contribute below. Expansion only
  // reads the neighbor column, never the coefficients.
  for (Vertex v = 0; v < s_.vertex_count(); ++v) {
    if (s_.is_special(v) || !st.considered_s[v] || !st.safe_s[v]) continue;
    for (const Vertex to : s_.neighbors(v)) {
      ++ops;
      if (!s_.is_special(to)) set_considered_s(st, to);
    }
  }
  const std::size_t slot_count_before = st.slots.size();
  for (std::size_t i = 0; i < slot_count_before; ++i) {
    // Indexed loop over ALL slots: matched slots are safe and keep
    // expanding the frontier, so this one iterates flags, not live bits.
    // ensure_slot may grow st.slots.
    if (!st.slots[i].safe) continue;
    const Vertex v = st.slots[i].vertex;
    for (const Vertex to : g_.neighbors(v)) {
      ++ops;
      if (host_fixed_label_[to] == kNoLabel) ensure_slot(st, to);
    }
  }

  // --- 2. Synchronous relabel of every live vertex on both sides.
  // Contributions come only from neighbors that were safe as of the last
  // completed pass (matched and special vertices are always safe).
  auto safe_label_s = [&](Vertex u) -> Label {
    if (s_.is_special(u)) {
      return special_image_[u] != kInvalidVertex ? s_.initial_label(u) : kNoLabel;
    }
    return st.safe_s[u] ? st.label_s[u] : kNoLabel;
  };
  auto safe_label_g = [&](Vertex u) -> Label {
    if (host_fixed_label_[u] != kNoLabel) return host_fixed_label_[u];
    auto it = st.slot_of.find(u);
    if (it == st.slot_of.end()) return kNoLabel;
    const Slot& slot = st.slots[it->second];
    return (slot.safe && !slot.excluded) ? slot.label : kNoLabel;
  };

  new_s_.clear();
  for (Vertex v = 0; v < s_.vertex_count(); ++v) {
    if (s_.is_special(v) || !st.considered_s[v]) continue;
    if (st.matched_s[v] != kInvalidVertex) continue;
    Label sum = 0;
    const auto nbrs = s_.neighbors(v);
    const auto coeffs = s_.coefficients(v);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      ++ops;
      const Label nl = safe_label_s(nbrs[k]);
      if (nl != kNoLabel) sum += edge_contribution(coeffs[k], nl);
    }
    new_s_.emplace_back(v, relabel(base_label(s_, v), sum));
  }
  new_g_.clear();
  for (std::size_t w = 0; w < st.live.size(); ++w) {
    std::uint64_t bits = st.live[w];
    while (bits != 0) {
      const auto i =
          static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
      bits &= bits - 1;
      const Slot& slot = st.slots[i];
      Label sum = 0;
      const auto nbrs = g_.neighbors(slot.vertex);
      const auto coeffs = g_.coefficients(slot.vertex);
      for (std::size_t k = 0; k < nbrs.size(); ++k) {
        ++ops;
        const Label nl = safe_label_g(nbrs[k]);
        if (nl != kNoLabel) sum += edge_contribution(coeffs[k], nl);
      }
      new_g_.emplace_back(i, relabel(base_label(g_, slot.vertex), sum));
    }
  }
  for (const auto& [v, l] : new_s_) set_label_s(st, v, l);
  for (const auto& [i, l] : new_g_) set_slot_label(st, i, l);
  // Fold the work counter in before the partition comparison below — a
  // refuted hypothesis (early return) still did this pass's edge visits.
  stats_.expansion_ops += ops;

  // --- 3. Partition census: flat (label, member) pairs, stable-sorted by
  // label (insertion order — vertex/slot index — survives within a group,
  // matching the hash-map-era push order), then one merge walk. Equal
  // sizes ⇒ safe; host-only labels ⇒ excluded; undersized host partitions
  // ⇒ hypothesis refuted.
  part_s_.clear();
  for (Vertex v = 0; v < s_.vertex_count(); ++v) {
    if (s_.is_special(v) || !st.considered_s[v]) continue;
    if (st.matched_s[v] != kInvalidVertex) continue;
    part_s_.emplace_back(st.label_s[v], v);
  }
  part_g_.clear();
  for (std::size_t w = 0; w < st.live.size(); ++w) {
    std::uint64_t bits = st.live[w];
    while (bits != 0) {
      const auto i =
          static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
      bits &= bits - 1;
      part_g_.emplace_back(st.slots[i].label, i);
    }
  }
  const auto by_label = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::stable_sort(part_s_.begin(), part_s_.end(), by_label);
  std::stable_sort(part_g_.begin(), part_g_.end(), by_label);

  const std::size_t matched_before = st.matched_count;
  std::size_t safe_unmatched = 0;
  to_match_.clear();
  std::size_t i = 0;
  std::size_t j = 0;
  const std::size_t ns = part_s_.size();
  const std::size_t ng = part_g_.size();
  while (i < ns || j < ng) {
    if (j >= ng || (i < ns && part_s_[i].first < part_g_[j].first)) {
      // Pattern partition with no live host twin: undersized (0 < n).
      return false;
    }
    if (i >= ns || part_g_[j].first < part_s_[i].first) {
      const Label l = part_g_[j].first;
      for (; j < ng && part_g_[j].first == l; ++j) {
        set_slot_excluded(st, part_g_[j].second, true);
      }
      continue;
    }
    const Label l = part_s_[i].first;
    const std::size_t si = i;
    const std::size_t sj = j;
    while (i < ns && part_s_[i].first == l) ++i;
    while (j < ng && part_g_[j].first == l) ++j;
    const std::size_t s_count = i - si;
    const std::size_t g_count = j - sj;
    if (g_count < s_count) return false;
    const bool safe = g_count == s_count;
    for (std::size_t k = si; k < i; ++k) set_safe_s(st, part_s_[k].second, safe);
    for (std::size_t k = sj; k < j; ++k) {
      set_slot_safe(st, part_g_[k].second, safe);
    }
    if (safe) {
      safe_unmatched += s_count;
      if (s_count == 1) {
        to_match_.emplace_back(part_s_[si].second,
                               st.slots[part_g_[sj].second].vertex);
      }
    }
  }

  // --- 4. Match singleton safe pairs (fresh fixed labels). A forced pair
  // whose signatures cannot coexist refutes the whole hypothesis — the
  // pairing is forced, so there is no other branch to take.
  for (const auto& [sv, gv] : to_match_) {
    if (options_.signature_filter && !signature_ok(sv, gv)) return false;
    ++stats_.bindings;
    const Label l = fresh_label(st);
    set_label_s(st, sv, l);
    set_matched_s(st, sv, gv);
    ++st.matched_count;
    const std::uint32_t gi = st.slot_of.at(gv);
    set_slot_label(st, gi, l);
    set_slot_safe(st, gi, true);
    set_slot_matched_to(st, gi, sv);
    --safe_unmatched;
  }

  *progress = st.matched_count > matched_before ||
              safe_unmatched > st.safe_unmatched;
  st.safe_unmatched = safe_unmatched;
  record_trace(st, st.passes);
  return true;
}

bool Phase2Verifier::extract_mapping(const std::vector<Vertex>& matched,
                                     SubcircuitInstance* out) const {
  out->device_image.assign(s_.device_count(), DeviceId());
  out->net_image.assign(s_.net_count(), NetId());
  for (Vertex v = 0; v < s_.vertex_count(); ++v) {
    Vertex image;
    if (s_.is_special(v)) {
      image = special_image_[v];
      if (image == kInvalidVertex && s_.degree(v) == 0) {
        continue;  // unused pattern global: no image required
      }
    } else {
      image = matched[v];
    }
    if (image == kInvalidVertex) return false;
    if (s_.is_device(v)) {
      if (!g_.is_device(image)) return false;
      out->device_image[v] = g_.device_of(image);
    } else {
      if (!g_.is_net(image)) return false;
      out->net_image[s_.net_of(v).index()] = g_.net_of(image);
    }
  }
  return true;
}

bool Phase2Verifier::verify_mapping(const SubcircuitInstance& inst) const {
  return verify_instance(s_.netlist(), g_.netlist(), inst);
}

void Phase2Verifier::record_trace(const State& st, std::size_t pass) const {
  if (options_.trace == nullptr) return;
  for (Vertex v = 0; v < s_.vertex_count(); ++v) {
    if (s_.is_special(v) || !st.considered_s[v]) continue;
    options_.trace->entries.push_back(Phase2Trace::Entry{
        stats_.candidates_tried, pass, false, v, st.label_s[v], st.safe_s[v],
        st.matched_s[v] != kInvalidVertex});
  }
  for (const Slot& slot : st.slots) {
    if (slot.excluded) continue;
    options_.trace->entries.push_back(Phase2Trace::Entry{
        stats_.candidates_tried, pass, true, slot.vertex, slot.label,
        slot.safe, slot.matched_to != kInvalidVertex});
  }
}

}  // namespace subg

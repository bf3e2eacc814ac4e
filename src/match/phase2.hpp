// Phase II — candidate verification (paper §IV, Algorithm VerifyImage).
//
// For a candidate c, postulate image(K) = c, give both vertices one fresh
// fixed label, and relabel outward. Only *safe* labels may contribute to a
// relabeling: a partition (same-label vertex group) is safe when its
// pattern and host sides have equal size — under the working hypothesis
// that an instance exists, an equal-sized host partition can contain only
// image vertices. Oversized host partitions are suspect; host vertices
// whose label matches no pattern partition are excluded (not in the image);
// an undersized host partition refutes the hypothesis. Singleton safe
// pairs are matched and receive a fresh fixed label that keeps refining
// their neighborhoods. Throughout,
//
//   Label Invariant (2): if g = image(s) then label(g) == label(s), and
//                        g and s are both safe or both suspect.
//
// When refinement stalls (symmetric patterns, Fig 5) the verifier guesses a
// match inside the smallest stalled partition and recurses with
// backtracking. Guess branches are unwound by a mutation trail (every state
// write inside a guess subtree is journaled and rolled back in reverse)
// instead of copying the whole State per branch. A fully matched mapping is
// then verified explicitly — edges, pin equivalence classes, induced-ness
// of internal nets — so reported instances are sound even if 64-bit labels
// collide.
//
// The fast path (Phase2Options::signature_filter, on by default) rejects
// postulates before any relabeling runs: a cheap neighborhood signature —
// degree plus the sorted neighbor-degree sequence (devices, precomputed in
// the circuit graph) or the sorted neighbor-type multiset (nets) — is
// checked at candidate entry, on every forced singleton match, and across
// every guess pool. The check is sound (it never rejects a pair that could
// complete: port nets demand host degree >=, internal nets demand equality,
// which final verification enforces anyway), so instances and reports are
// identical with the filter off; only the work counters shrink. Refuted
// pairs are memoized per candidate (nogood recording), so symmetric
// patterns stop re-deriving the same refutation across sibling branches.
//
// Ahead of relabeling, a forced-pin walk (on with the signature filter,
// off under a trace) tries to settle the candidate from its pins alone:
// with K↦c and the rails bound, each unbound pattern neighbor of a bound
// vertex gets a domain of host images that its pins still admit. Domains
// are supersets of every image an embedding could use, so an empty domain
// refutes the candidate and a singleton is forced; a walk that binds every
// pattern vertex has found the only mapping with K↦c, and final
// verification decides it. Only when no domain is a singleton does the
// relabel search run, from scratch. A pattern whose walk against itself
// gets stuck on K skips the walk.
//
// Special signals (paper §IV.A): global nets are pre-matched by name,
// carry fixed name-derived labels, are never relabeled and never expand the
// search frontier — matching a pattern against a 100k-fanout rail must not
// drag the whole rail fanout into the refinement.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "analyze/analyze.hpp"
#include "graph/circuit_graph.hpp"
#include "match/instance.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"

namespace subg {

/// Optional pass-by-pass trace (used to regenerate the paper's Table 1).
struct Phase2Trace {
  struct Entry {
    std::size_t candidate;  ///< 1-based index of the verify() call
    std::size_t pass;   ///< relabeling pass, 1-based; 0 = initial postulate
    bool host;          ///< false: pattern-side vertex; true: host-side
    Vertex vertex;
    Label label;
    bool safe;
    bool matched;
  };
  std::vector<Entry> entries;
};

struct Phase2Options {
  std::uint64_t seed = 0x53554247454D494EULL;  // "SUBGEMIN"
  std::size_t max_passes_per_candidate = 1u << 20;
  std::size_t max_guess_depth = 4096;
  /// Wall-clock / cancellation envelope, polled once per forced-pin walk,
  /// per relabeling pass and per guess branch. Hitting any limit (caps
  /// included) is recorded in the verifier's RunStatus — never silently.
  Budget budget;
  /// When non-null, every pass appends the labels of both graphs' live
  /// vertices. Only use on small examples.
  Phase2Trace* trace = nullptr;
  /// Phase II fast path: the neighborhood-signature prefilter on postulates
  /// (candidate entry, forced singleton matches, guess pools), the
  /// per-candidate nogood memo over refuted (pattern, host) pairs, and the
  /// forced-pin walk ahead of relabeling (skipped under a trace). Off
  /// reproduces the pure census search — same instances, same reports,
  /// strictly more passes/guesses — which is what the A/B equivalence
  /// tests and the EXPERIMENTS.md comparisons run.
  bool signature_filter = true;
  /// Supplemental path-label refuter (--phase2-filter=paths). When both
  /// pointers are set, signature_ok additionally compares the closed-walk
  /// counts (analyze::HostPathLabels::refutes) and rejects pairs the degree
  /// signature cannot tell apart. Sound by the same argument as the
  /// signature filter: a refuted pair can never complete, so instances and
  /// statuses are unchanged; Phase2Stats::path_label_prunes counts the
  /// extra rejections. Both must use equal walk_steps over exactly these
  /// two graphs; the host memo counts each anchor on its first query.
  const analyze::PathLabels* pattern_paths = nullptr;
  const analyze::HostPathLabels* host_paths = nullptr;
  /// Pattern automorphism group for exhaustive enumeration. When set (and
  /// symmetry_dedup), enumerate() suppresses a completion if applying any
  /// automorphism to it yields a mapping already recorded for this
  /// candidate — those copies cover the same host device set, which the
  /// public matcher collapses anyway (matcher.hpp on exhaustive dedup), so
  /// suppression only removes work (Phase2Stats::symmetry_skips), never an
  /// instance from the final report. The matcher enables this only when no
  /// match limit binds: under a limit, suppressed copies could change
  /// WHICH instances fill the quota.
  const analyze::Orbits* pattern_orbits = nullptr;
  bool symmetry_dedup = false;
};

class Phase2Verifier {
 public:
  /// Both graphs must outlive the verifier. Pattern global nets are
  /// resolved against same-named host global nets at construction.
  Phase2Verifier(const CircuitGraph& pattern, const CircuitGraph& host,
                 Phase2Options options = {});

  /// False when some pattern global net has no same-named global net in the
  /// host — then no instance can exist and verify() always returns nullopt.
  [[nodiscard]] bool globals_resolved() const { return globals_resolved_; }

  /// Attempt to find one instance in which `candidate` is the image of
  /// `key`. Returns the full mapping on success.
  [[nodiscard]] std::optional<SubcircuitInstance> verify(Vertex key,
                                                         Vertex candidate);

  /// Enumerate EVERY instance in which `candidate` is the image of `key`,
  /// by exploring all guess branches instead of stopping at the first
  /// completion. Deduplicated by the full (device image, net image) pair —
  /// automorphic branches that permute the pattern onto the same wiring
  /// collapse, while matches that differ only in external-net bindings
  /// (e.g. the two orientations of a pass transistor) are distinct.
  /// Forced (refinement) steps are shared by all such instances, so only
  /// ambiguity points branch; symmetric patterns still enumerate
  /// automorphic assignments, so `limit` caps the work. Used for
  /// exhaustive matching semantics (the public matcher then collapses to
  /// one instance per device set — matcher.hpp documents why).
  [[nodiscard]] std::vector<SubcircuitInstance> enumerate(Vertex key,
                                                          Vertex candidate,
                                                          std::size_t limit);

  [[nodiscard]] const Phase2Stats& stats() const { return stats_; }

  /// How the verification work done so far went: kComplete, or the first
  /// cap/deadline/cancellation that abandoned part of the search, with
  /// counters for abandoned guess branches. Accumulated across verify() /
  /// enumerate() calls, like stats().
  [[nodiscard]] const RunStatus& status() const { return status_; }

  /// Return the accumulated status and reset it to kComplete. Parallel
  /// sweeps call this after every candidate so per-candidate statuses can
  /// be merged in seed-index order — reproducing the serial run's report
  /// regardless of which worker verified which candidate.
  [[nodiscard]] RunStatus take_status() {
    RunStatus out = std::move(status_);
    status_ = RunStatus{};
    return out;
  }

 private:
  static constexpr Vertex kInvalidVertex = 0xFFFFFFFFu;

  struct Slot {
    Vertex vertex;
    Label label = kNoLabel;
    bool safe = false;      // as of the last completed pass
    bool excluded = false;  // proven outside the image under this hypothesis
    Vertex matched_to = kInvalidVertex;  // pattern vertex, if matched
    friend bool operator==(const Slot&, const Slot&) = default;
  };

  /// Complete mutable search state. Guess branches journal their writes on
  /// the trail and roll back on backtrack; whole-State copies survive only
  /// in the SUBG_AUDIT cross-check of that rollback.
  struct State {
    // Pattern side (dense arrays over pattern vertices).
    std::vector<Label> label_s;
    std::vector<bool> considered_s;
    std::vector<bool> safe_s;                 // as of the last completed pass
    std::vector<Vertex> matched_s;            // host vertex, if matched
    std::size_t matched_count = 0;            // matched non-special vertices
    std::size_t safe_unmatched = 0;           // |safe ∧ ¬matched| pattern side
    // Host side (sparse: only vertices the refinement has touched).
    std::unordered_map<Vertex, std::uint32_t> slot_of;
    std::vector<Slot> slots;
    /// Live-slot bitset over the slot array: bit i ⇔ slots[i] is neither
    /// excluded nor matched. Maintained incrementally by every slot write
    /// (and by trail rollback), so relabeling, the partition census, and
    /// the guess-pool domains iterate set bits instead of re-testing flags.
    std::vector<std::uint64_t> live;
    SplitMix64 rng;
    std::size_t passes = 0;
  };

  enum class Outcome { kSuccess, kFail };

  /// How a forced-pin walk ended. kMatched and kRefuted settle the
  /// candidate; kStuck hands it to the relabel search; kInterrupted means
  /// the Budget fired at entry (recorded in the status).
  enum class WalkVerdict { kMatched, kRefuted, kStuck, kInterrupted };

  /// One journaled state mutation: enough to restore the old value.
  struct TrailEntry {
    enum class Kind : std::uint8_t {
      kLabelS,
      kConsideredS,
      kSafeS,
      kMatchedS,
      kSlotLabel,
      kSlotSafe,
      kSlotExcluded,
      kSlotMatchedTo,
    };
    Kind kind;
    std::uint32_t index;       // pattern vertex or slot index
    std::uint64_t old_value;
  };

  /// Restore point for one guess branch: trail length + slot count (slots
  /// only grow inside a branch, so rollback truncates) + the scalar
  /// counters and the rng stream, which are cheaper to snapshot than to
  /// journal per mutation.
  struct TrailMark {
    std::size_t entries;
    std::size_t slots;
    std::size_t matched_count;
    std::size_t safe_unmatched;
    std::size_t passes;
    SplitMix64 rng;
  };

  /// Per-vertex signature requirements, precomputed over the pattern at
  /// construction. Devices: the degrees their non-rail pins demand of the
  /// host candidate's pins — exact for internal nets (final verification
  /// enforces induced-ness), lower bounds for ports. Nets: own degree,
  /// port-ness, and the sorted multiset of neighbor device types.
  struct PinProfile {
    std::vector<std::uint32_t> exact;  // sorted ascending
    std::vector<std::uint32_t> lower;  // sorted ascending
    std::vector<Label> nbr_labels;     // sorted ascending (nets only)
    std::uint32_t degree = 0;          // nets only
    bool is_port = false;              // nets only
  };

  /// Candidate-entry checks shared by verify() and enumerate(): resolved
  /// globals, matching vertex kind and device type, a fresh per-candidate
  /// scratch, and the signature check on K↦c.
  [[nodiscard]] bool admit(Vertex key, Vertex candidate);
  /// The relabel search (VerifyImage) for one candidate, from scratch.
  [[nodiscard]] std::optional<SubcircuitInstance> relabel_verify(
      Vertex key, Vertex candidate);
  [[nodiscard]] std::vector<SubcircuitInstance> relabel_enumerate(
      Vertex key, Vertex candidate, std::size_t limit);

  /// In enumerate mode `sink` collects completions and run() keeps
  /// backtracking (returns kFail upward) until branches are exhausted or
  /// `sink_limit` is reached.
  Outcome run(State& st, std::size_t depth, SubcircuitInstance* out,
              std::vector<SubcircuitInstance>* sink = nullptr,
              std::size_t sink_limit = 0);
  /// One relabel + partition + safety + match pass. Returns false on
  /// refuted hypothesis; sets *progress.
  bool pass(State& st, bool* progress);
  void postulate(State& st, Vertex s, Vertex g);
  std::uint32_t ensure_slot(State& st, Vertex g);
  [[nodiscard]] Label fresh_label(State& st);
  /// Fill `out` from a pattern→host binding of the non-special vertices
  /// (specials take their by-name image). False if a vertex is unbound or
  /// bound across kinds.
  [[nodiscard]] bool extract_mapping(const std::vector<Vertex>& matched,
                                     SubcircuitInstance* out) const;
  [[nodiscard]] bool verify_mapping(const SubcircuitInstance& inst) const;
  void record_trace(const State& st, std::size_t pass) const;
  void reset_candidate_scratch();

  // --- trail-journaled state mutators (recording only inside a guess
  // branch: writes at depth 0 are never rolled back, they die with the
  // candidate's State).
  void set_label_s(State& st, Vertex v, Label l);
  void set_considered_s(State& st, Vertex v);
  void set_safe_s(State& st, Vertex v, bool safe);
  void set_matched_s(State& st, Vertex v, Vertex g);
  void set_slot_label(State& st, std::uint32_t i, Label l);
  void set_slot_safe(State& st, std::uint32_t i, bool safe);
  void set_slot_excluded(State& st, std::uint32_t i, bool excluded);
  void set_slot_matched_to(State& st, std::uint32_t i, Vertex s);
  [[nodiscard]] TrailMark trail_mark(const State& st) const;
  void undo_to(State& st, const TrailMark& mark);
  [[nodiscard]] static bool states_equal(const State& a, const State& b);

  // --- live-slot bitset maintenance.
  static void live_push(State& st);
  static void live_refresh(State& st, std::uint32_t i);
  static void live_shrink(State& st, std::size_t slot_count);
  [[nodiscard]] static bool live_test(const State& st, std::size_t i);

  // --- neighborhood-signature prefilter (the fast path).
  [[nodiscard]] bool signature_ok(Vertex s, Vertex g);
  [[nodiscard]] bool device_compatible(Vertex s, Vertex g);
  [[nodiscard]] bool net_compatible(Vertex s, Vertex g);
  /// Degree rule of pattern net s for host net g: equal for an internal
  /// net, at least the pattern degree for a port.
  [[nodiscard]] bool net_degree_fits(Vertex s, Vertex g) const;

  // --- forced-pin walk ahead of relabeling.
  /// True when the walk runs for this key: the signature filter is on, no
  /// trace is recorded, and the pattern's walk against itself from K↦K
  /// completes (computed once per key).
  [[nodiscard]] bool walk_enabled(Vertex key);
  [[nodiscard]] WalkVerdict walk(Vertex key, Vertex candidate,
                                 SubcircuitInstance* out);
  /// Compute the domains of v's unbound neighbors and bind the singletons.
  /// False when some domain is empty.
  [[nodiscard]] bool walk_expand(Vertex v);
  /// Size of x's domain, capped at 2 (two or more, or nothing bound to
  /// generate it from); `*only` is the image when the size is 1.
  [[nodiscard]] std::size_t walk_domain(Vertex x, Vertex* only) const;
  [[nodiscard]] bool walk_fits(Vertex x, Vertex y) const;
  [[nodiscard]] bool walk_device_pins_fit(Vertex x, Vertex y) const;
  [[nodiscard]] bool walk_net_pins_fit(Vertex x, Vertex y) const;
  void walk_bind(Vertex x, Vertex y);
  /// Image of pattern vertex v so far: by name for a rail, the walk's
  /// binding otherwise (kInvalidVertex while unbound).
  [[nodiscard]] Vertex walk_image_of(Vertex v) const {
    return s_.is_special(v) ? special_image_[v] : walk_image_[v];
  }
  /// A host vertex no pattern vertex is bound to and that is no rail of
  /// this pattern.
  [[nodiscard]] bool walk_host_free(Vertex g) const {
    return walk_owner_[g] == kInvalidVertex && host_fixed_label_[g] == kNoLabel;
  }
  /// SUBG_AUDIT A20: after a settling verdict (kMatched, kRefuted), re-run
  /// the relabel search on the candidate and require the same verdict and,
  /// on a match, `walked`'s images. `limit` 0 = verify().
  void audit_walk(Vertex key, Vertex candidate, std::size_t limit,
                  WalkVerdict verdict, const SubcircuitInstance& walked);

  const CircuitGraph& s_;
  const CircuitGraph& g_;
  Phase2Options options_;
  Phase2Stats stats_;
  /// Per-pass relabel result buffers, reused across passes (cleared, never
  /// reallocated) — contents and iteration order are identical to fresh
  /// vectors, so reports stay bit-identical.
  std::vector<std::pair<Vertex, Label>> new_s_;
  std::vector<std::pair<std::uint32_t, Label>> new_g_;
  /// Partition census buffers: flat (label, member) pairs, stable-sorted by
  /// label — groups replace the per-pass hash maps. Reused like new_*_.
  std::vector<std::pair<Label, Vertex>> part_s_;
  std::vector<std::pair<Label, std::uint32_t>> part_g_;
  std::vector<std::pair<Vertex, Vertex>> to_match_;
  /// Mutation journal for guess-branch rollback, with the active-branch
  /// depth gating what gets recorded.
  std::vector<TrailEntry> trail_;
  std::size_t trail_depth_ = 0;
  /// Per-candidate signature memo: (pattern vertex, host vertex) → checked
  /// verdict. Refuted entries are the nogood set; cleared per candidate so
  /// counters stay deterministic across --jobs lane assignments.
  std::unordered_map<std::uint64_t, bool> compat_cache_;
  /// Signature scratch (device lower-bound matching, host net neighbor
  /// types).
  std::vector<std::uint32_t> degree_rem_scratch_;
  std::vector<Label> host_label_scratch_;
  /// Ball-local scratch for the host path labels this lane counts.
  analyze::WalkScratch path_scratch_;
  std::vector<PinProfile> profile_;
  RunStatus status_;
  bool globals_resolved_ = true;
  /// Pattern special net vertex → host special net vertex (by name).
  std::vector<Vertex> special_image_;  // indexed by pattern vertex; kInvalidVertex
  /// Host vertices acting as special rails for THIS pattern (same-named
  /// pattern global exists): their fixed label; kNoLabel for ordinary
  /// vertices — including host-declared globals the pattern does not name.
  std::vector<Label> host_fixed_label_;
  std::size_t matchable_total_ = 0;    // non-special pattern vertices
  /// Forced-pin walk buffers, allocated at the first walk and reset through
  /// walk_order_ (the previous candidate's bindings) — a settled candidate
  /// allocates nothing here. walk_image_: pattern vertex → host vertex;
  /// walk_owner_: host vertex → pattern vertex; walk_order_: bound
  /// non-special pattern vertices in binding order, which is also the
  /// worklist. walk_gate_: per key, -1 unknown, 0 skip the walk, 1 walk.
  std::vector<Vertex> walk_image_;
  std::vector<Vertex> walk_owner_;
  std::vector<Vertex> walk_order_;
  std::vector<std::int8_t> walk_gate_;
};

}  // namespace subg

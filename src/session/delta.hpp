// ECO netlist deltas: the edit language of a HostSession.
//
// A delta is an ORDERED list of edits to an already-loaded host netlist,
// parsed from a JSON-lines text (one op object per line; blank lines and
// `#` comment lines are skipped). The grammar, per op:
//
//   {"op":"add_net",       "name":"X", "global":bool?, "port":bool?}
//   {"op":"remove_net",    "name":"X"}            # must have degree 0
//   {"op":"add_device",    "type":"nmos", "name":"M1",
//                          "nets":["a","b","c"]}  # missing nets are created
//   {"op":"remove_device", "name":"M1"}           # internal nets left at
//                                                 # degree 0 are dropped too
//   {"op":"rename_net",    "from":"a", "to":"b"}
//   {"op":"rename_device", "from":"m1", "to":"m2"}
//
// Ops apply strictly in order; every name resolves against the netlist
// state produced by the preceding ops. Malformed lines and inapplicable
// ops (unknown name, duplicate name, removing a live net) throw
// subg::Error prefixed "delta line N: ...".
//
// apply_delta() additionally tracks the PEDIGREE of the edit — which
// post-edit entities are fresh, which were renamed (and from what), and
// which nets had their pin set changed. HostSession::apply uses that to
// map vertices across the edit and to seed the label-cache dirty cone; see
// session.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "netlist/netlist.hpp"

namespace subg {

enum class DeltaOpKind : std::uint8_t {
  kAddNet,
  kRemoveNet,
  kAddDevice,
  kRemoveDevice,
  kRenameNet,
  kRenameDevice,
};

struct DeltaOp {
  DeltaOpKind kind = DeltaOpKind::kAddNet;
  /// add_net / remove_net / add_device / remove_device target name.
  /// add_device accepts "" (auto-named, like Netlist::add_device).
  std::string name;
  /// add_device only: catalog type name.
  std::string type;
  /// add_device only: pin nets in pin order (created when missing).
  std::vector<std::string> nets;
  /// rename_* only.
  std::string from;
  std::string to;
  /// add_net only.
  bool global = false;
  bool port = false;
  /// 1-based source line, for apply-time error messages.
  std::size_t line = 0;
};

struct NetlistDelta {
  std::vector<DeltaOp> ops;
};

/// Parse a JSON-lines delta text. Throws subg::Error ("delta line N: ...")
/// on the first malformed line. Fault site "parse.delta".
[[nodiscard]] NetlistDelta parse_delta(std::string_view text);

/// parse_delta over the contents of `path`; throws subg::Error when the
/// file cannot be read.
[[nodiscard]] NetlistDelta parse_delta_file(const std::string& path);

/// What a delta did to the netlist, in post-edit names — the bookkeeping
/// HostSession needs to rebase caches from the edit's dirty cone. All sets/maps speak
/// CURRENT (post-edit) names; entities removed again by a later op are
/// cleaned out, so the final state describes exactly the surviving edit.
struct DeltaEffects {
  /// Devices/nets that did not exist before the delta (a remove+re-add of
  /// the same name counts as fresh — conservative, always sound).
  std::unordered_set<std::string> fresh_devices;
  std::unordered_set<std::string> fresh_nets;
  /// Pre-existing nets whose pin set changed (gained or lost pins).
  std::unordered_set<std::string> touched_nets;
  /// Surviving renamed entities: current name -> pre-delta name.
  std::unordered_map<std::string, std::string> device_pre_name;
  std::unordered_map<std::string, std::string> net_pre_name;
  /// Op counts actually applied (for the eco.* counters).
  std::uint64_t device_ops = 0;
  std::uint64_t net_ops = 0;
  std::uint64_t rename_ops = 0;
};

/// Apply `delta` to `netlist` in order. Throws subg::Error on the first
/// inapplicable op, leaving the netlist in the partially-applied state —
/// callers needing atomicity (HostSession::apply) edit a copy and commit
/// by swap.
DeltaEffects apply_delta(Netlist& netlist, const NetlistDelta& delta);

}  // namespace subg

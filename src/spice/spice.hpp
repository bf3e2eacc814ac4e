// SPICE-subset reader and writer, so patterns and hosts can come from (and
// go to) ordinary netlist files.
//
// Supported on read:
//   * comment lines (*, ;, $), inline "$ comment", + continuations,
//     case-insensitive keywords and names
//   * .SUBCKT <name> <ports...> / .ENDS [name] — nested definitions are
//     rejected; instances via X cards
//   * .GLOBAL <nets...> — global rails (the matcher's special signals)
//   * .END (optional)
//   * device cards:
//       M<name> <d> <g> <s> [<b>] <model> [k=v ...]   MOSFET — node count
//         follows the catalog's nmos/pmos pin count; model names starting
//         with 'p' map to pmos, otherwise nmos (exact catalog type names
//         win)
//       R/C<name> <p1> <p2> [value]                   resistor / capacitor
//       D<name> <anode> <cathode> [model]             diode
//       X<name> <nets...> <subckt-or-type>            subcircuit instance,
//         or a direct device when the last token names a catalog type
//
// Cards outside any .SUBCKT form the top-level circuit, module "main".
//
// The writer emits .GLOBAL, .SUBCKT (for netlists with ports), M/R/C/D
// cards for the standard types and X cards for any other device type —
// which the reader maps back to catalog types, so gate-level netlists
// round-trip. A net is named only by those cards, so the writer omits
// every net that has no pin and is neither a port nor global: the reparse
// lacks exactly those nets.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "netlist/design.hpp"
#include "util/diagnostics.hpp"

namespace subg::spice {

struct ReadOptions {
  std::shared_ptr<const DeviceCatalog> catalog = DeviceCatalog::cmos();
  /// Name for the module collecting top-level cards.
  std::string top_name = "main";
  /// Strict mode (null, the default): throw subg::Error at the first
  /// malformed card. Recovering mode (non-null): record each malformed card
  /// as a Diagnostic in the sink, skip it, and keep parsing — the returned
  /// Design contains everything that did parse. Catalog/environment
  /// problems (e.g. a catalog without an nmos type) still throw.
  DiagnosticSink* diagnostics = nullptr;
  /// Input path used in diagnostics; read_file fills it automatically.
  std::string filename;
};

/// Parse SPICE text into a hierarchical design. Throws subg::Error with a
/// line number on malformed input.
[[nodiscard]] Design read(std::istream& in, const ReadOptions& options = {});
[[nodiscard]] Design read_string(std::string_view text,
                                 const ReadOptions& options = {});
[[nodiscard]] Design read_file(const std::string& path,
                               const ReadOptions& options = {});

/// Parse and flatten in one step (top defaults to "main").
[[nodiscard]] Netlist read_flat(std::string_view text,
                                const ReadOptions& options = {},
                                std::string_view top = "");

/// Write a flat netlist. If it has ports it is wrapped in .SUBCKT/.ENDS.
void write(std::ostream& out, const Netlist& netlist);
[[nodiscard]] std::string write_string(const Netlist& netlist);

}  // namespace subg::spice

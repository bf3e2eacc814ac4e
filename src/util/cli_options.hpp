// Shared global-flag handling for the command-line front ends.
//
// The subgemini tool and the bench mains accept one common set of global
// flags; this is the single parser for them, so a flag added here appears
// everywhere with the same spelling, validation, and error message:
//
//   --timeout=<sec>      wall-clock budget (arms GlobalOptions::budget)
//   --jobs=<n>           parallel lanes; n >= 1 (0 stays "unset")
//   --lenient            recovering parse mode
//   --format=text|json   output format (text is the historical default)
//   --metrics[=FILE]     collect search metrics; dump the counter tree to
//                        FILE (stderr when omitted)
//   --top=NAME           top module of the host / second / sole input
//   --pattern-top=NAME   top module of the pattern / first input
//   --fail-on=warn|error severity threshold for a nonzero lint exit
//   --lint               run the lint checks before extraction
//   --shard=on|off|N     Phase I host sharding: off (default), on (regions
//                        of at most 65536 devices), or an explicit region
//                        size N >= 1; results are byte-identical either way
//   --phase2-filter=paths|on|off
//                        Phase II prefilter strength: paths (default;
//                        signature + supplemental path-label refuter), on
//                        (signature alone), off (pure census) — all sound,
//                        the weaker modes are the A/B measurement paths
//   --analyze=on|off     pre-search static analysis: infeasibility
//                        certificates + symmetry-aware enumeration dedup
//                        (on is the default)
//   --delta=FILE         ECO delta (JSON-lines) applied to the host before
//                        matching (find/extract)
//
// Flags may appear anywhere; everything else is returned as a positional.
// Unknown --flags are an error (callers map it to a usage exit), so typos
// fail loudly instead of being read as file names. A literal "--" ends flag
// parsing.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/budget.hpp"
#include "util/phase2_filter.hpp"

namespace subg::cli {

enum class Format { kText, kJson };

/// --fail-on: lowest finding severity that turns into a nonzero exit.
/// kError is the default (warnings inform, errors gate); kWarn tightens the
/// gate for CI runs that want a warning-clean deck.
enum class FailOn { kError, kWarn };

struct GlobalOptions {
  /// Armed iff --timeout was given; default-unlimited otherwise.
  Budget budget;
  /// 0 = unset (front ends map it to their own default, typically hardware
  /// concurrency); --jobs rejects 0 explicitly.
  std::size_t jobs = 0;
  bool lenient = false;
  Format format = Format::kText;
  /// --metrics[=FILE]: collect counters during the run.
  bool metrics = false;
  /// Dump target for the text counter tree; empty = stderr.
  std::string metrics_path;
  /// --top / --pattern-top; empty = not given.
  std::string top;
  std::string pattern_top;
  /// --fail-on severity threshold for lint-style commands.
  FailOn fail_on = FailOn::kError;
  /// --lint: run the lint checks as a preflight (extract).
  bool lint = false;
  /// --shard: Phase I host sharding (graph/shard_plan.hpp). 0 (the default,
  /// --shard=off) matches the whole host as one monolith; --shard=on uses
  /// 65536-device regions; --shard=N sets the region size explicitly.
  /// Reports are byte-identical at every value — sharding changes the sweep
  /// schedule and adds the shards_* counters, never the result.
  std::size_t shard_target_devices = 0;
  /// --phase2-filter: Phase II prefilter strength (util/phase2_filter.hpp).
  /// paths (the default) adds the supplemental path-label refuter on top of
  /// the signature prefilter and nogood memo; on/off are the weaker A/B
  /// measurement settings. All sound — results identical at any value.
  Phase2Filter phase2_filter = Phase2Filter::kPaths;
  /// --analyze: pre-search static analysis (src/analyze) — infeasibility
  /// certificates short-circuit provably matchless searches, pattern
  /// automorphisms dedup symmetric exhaustive enumeration. Off reproduces
  /// the pre-analyzer pipeline.
  bool analyze = true;
  /// --delta=FILE: ECO delta applied to the host session before matching
  /// (see session/delta.hpp for the grammar); empty = none.
  std::string delta_path;
  /// serve-only knobs (see serve/server.hpp for semantics; inert for the
  /// one-shot commands).
  std::size_t serve_workers = 1;
  std::size_t max_pending = 64;
  std::size_t max_request_bytes = 1 << 20;
  /// Server-default per-request budget, seconds; 0 = unlimited.
  double request_timeout = 0;
  /// AF_UNIX socket path; empty = stdin/stdout.
  std::string socket_path;
};

struct ParsedArgs {
  GlobalOptions options;
  std::vector<std::string> positionals;
  /// Empty on success; otherwise a one-line message (no tool-name prefix,
  /// no trailing newline) and the other fields are unspecified.
  std::string error;

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Parse argv-style arguments (not including the program / command name).
[[nodiscard]] ParsedArgs parse_args(const std::vector<std::string>& args);

/// Convenience overload over raw argv, starting at index `first`.
[[nodiscard]] ParsedArgs parse_args(int argc, char** argv, int first = 1);

/// The flags block for usage text, one indented line per flag.
[[nodiscard]] const char* global_flags_help();

}  // namespace subg::cli

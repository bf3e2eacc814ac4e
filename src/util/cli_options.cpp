#include "util/cli_options.hpp"

#include <cstdlib>

namespace subg::cli {

namespace {

/// Value of `--name=value` when `arg` starts with "--name="; nullptr
/// otherwise. An exact "--name" (no '=') returns nullptr too — flags that
/// allow the bare form check for it separately.
[[nodiscard]] const char* flag_value(const std::string& arg,
                                     const char* prefix) {
  const std::size_t n = std::string::traits_type::length(prefix);
  if (arg.compare(0, n, prefix) != 0) return nullptr;
  return arg.c_str() + n;
}

}  // namespace

ParsedArgs parse_args(const std::vector<std::string>& args) {
  ParsedArgs out;
  bool flags_done = false;
  for (const std::string& arg : args) {
    if (flags_done || arg.size() < 2 || arg.compare(0, 2, "--") != 0) {
      out.positionals.push_back(arg);
      continue;
    }
    if (arg == "--") {
      flags_done = true;
      continue;
    }
    if (const char* v = flag_value(arg, "--timeout=")) {
      char* end = nullptr;
      const double seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || seconds <= 0) {
        out.error = std::string("bad --timeout value '") + v + "'";
        return out;
      }
      out.options.budget.set_deadline_after(seconds);
      continue;
    }
    if (const char* v = flag_value(arg, "--jobs=")) {
      char* end = nullptr;
      const unsigned long jobs = std::strtoul(v, &end, 10);
      if (end == v || *end != '\0' || jobs == 0) {
        out.error = std::string("bad --jobs value '") + v + "'";
        return out;
      }
      out.options.jobs = static_cast<std::size_t>(jobs);
      continue;
    }
    if (arg == "--lenient") {
      out.options.lenient = true;
      continue;
    }
    if (const char* v = flag_value(arg, "--format=")) {
      const std::string value = v;
      if (value == "text") {
        out.options.format = Format::kText;
      } else if (value == "json") {
        out.options.format = Format::kJson;
      } else {
        out.error = "bad --format value '" + value + "' (want text or json)";
        return out;
      }
      continue;
    }
    if (arg == "--metrics") {
      out.options.metrics = true;
      continue;
    }
    if (const char* v = flag_value(arg, "--metrics=")) {
      if (*v == '\0') {
        out.error = "bad --metrics value: empty file name";
        return out;
      }
      out.options.metrics = true;
      out.options.metrics_path = v;
      continue;
    }
    if (const char* v = flag_value(arg, "--top=")) {
      if (*v == '\0') {
        out.error = "bad --top value: empty module name";
        return out;
      }
      out.options.top = v;
      continue;
    }
    if (const char* v = flag_value(arg, "--pattern-top=")) {
      if (*v == '\0') {
        out.error = "bad --pattern-top value: empty module name";
        return out;
      }
      out.options.pattern_top = v;
      continue;
    }
    if (const char* v = flag_value(arg, "--fail-on=")) {
      const std::string value = v;
      if (value == "warn") {
        out.options.fail_on = FailOn::kWarn;
      } else if (value == "error") {
        out.options.fail_on = FailOn::kError;
      } else {
        out.error = "bad --fail-on value '" + value + "' (want warn or error)";
        return out;
      }
      continue;
    }
    if (arg == "--lint") {
      out.options.lint = true;
      continue;
    }
    if (const char* v = flag_value(arg, "--shard=")) {
      const std::string value = v;
      if (value == "off") {
        out.options.shard_target_devices = 0;
      } else if (value == "on") {
        out.options.shard_target_devices = std::size_t{1} << 16;
      } else {
        char* end = nullptr;
        const unsigned long target = std::strtoul(v, &end, 10);
        if (end == v || *end != '\0' || target == 0) {
          out.error = std::string("bad --shard value '") + v +
                      "' (want on, off, or a region size >= 1)";
          return out;
        }
        out.options.shard_target_devices = static_cast<std::size_t>(target);
      }
      continue;
    }
    if (const char* v = flag_value(arg, "--phase2-filter=")) {
      const auto filter = parse_phase2_filter(v);
      if (!filter.has_value()) {
        out.error = std::string("bad --phase2-filter value '") + v +
                    "' (want paths, on, or off)";
        return out;
      }
      out.options.phase2_filter = *filter;
      continue;
    }
    if (const char* v = flag_value(arg, "--analyze=")) {
      const std::string value = v;
      if (value == "on") {
        out.options.analyze = true;
      } else if (value == "off") {
        out.options.analyze = false;
      } else {
        out.error = "bad --analyze value '" + value + "' (want on or off)";
        return out;
      }
      continue;
    }
    if (const char* v = flag_value(arg, "--delta=")) {
      if (*v == '\0') {
        out.error = "bad --delta value: empty file name";
        return out;
      }
      out.options.delta_path = v;
      continue;
    }
    if (const char* v = flag_value(arg, "--serve-workers=")) {
      char* end = nullptr;
      const unsigned long workers = std::strtoul(v, &end, 10);
      if (end == v || *end != '\0' || workers == 0) {
        out.error = std::string("bad --serve-workers value '") + v + "'";
        return out;
      }
      out.options.serve_workers = static_cast<std::size_t>(workers);
      continue;
    }
    if (const char* v = flag_value(arg, "--max-pending=")) {
      char* end = nullptr;
      const unsigned long pending = std::strtoul(v, &end, 10);
      if (end == v || *end != '\0' || pending == 0) {
        out.error = std::string("bad --max-pending value '") + v + "'";
        return out;
      }
      out.options.max_pending = static_cast<std::size_t>(pending);
      continue;
    }
    if (const char* v = flag_value(arg, "--max-request-bytes=")) {
      char* end = nullptr;
      const unsigned long bytes = std::strtoul(v, &end, 10);
      if (end == v || *end != '\0' || bytes == 0) {
        out.error = std::string("bad --max-request-bytes value '") + v + "'";
        return out;
      }
      out.options.max_request_bytes = static_cast<std::size_t>(bytes);
      continue;
    }
    if (const char* v = flag_value(arg, "--request-timeout=")) {
      char* end = nullptr;
      const double seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || seconds <= 0) {
        out.error = std::string("bad --request-timeout value '") + v + "'";
        return out;
      }
      out.options.request_timeout = seconds;
      continue;
    }
    if (const char* v = flag_value(arg, "--socket=")) {
      if (*v == '\0') {
        out.error = "bad --socket value: empty path";
        return out;
      }
      out.options.socket_path = v;
      continue;
    }
    out.error = "unknown flag '" + arg + "'";
    return out;
  }
  return out;
}

ParsedArgs parse_args(int argc, char** argv, int first) {
  std::vector<std::string> args;
  for (int i = first; i < argc; ++i) args.emplace_back(argv[i]);
  return parse_args(args);
}

const char* global_flags_help() {
  return
      "  --timeout=<sec>    wall-clock budget; a run cut short exits 75\n"
      "  --jobs=<n>         parallel lanes (default: hardware concurrency;\n"
      "                     1 = serial; results are identical at every value)\n"
      "  --lenient          recover from malformed input lines (diagnostics\n"
      "                     go to stderr) instead of failing\n"
      "  --format=<fmt>     output format: text (default) or json (one\n"
      "                     schema_version-1 document on stdout)\n"
      "  --metrics[=FILE]   collect search metrics; dump the counter tree\n"
      "                     to FILE (default stderr), and embed it in json\n"
      "                     output\n"
      "  --top=NAME         top module of the host (second or sole) input\n"
      "  --pattern-top=NAME top module of the pattern (first) input\n"
      "  --fail-on=<sev>    lowest lint severity that fails the run: error\n"
      "                     (default) or warn\n"
      "  --lint             extract: lint the host netlist first; lint\n"
      "                     errors skip the extraction sweep\n"
      "  --shard=<mode>     Phase I host sharding: off (default; one\n"
      "                     monolithic sweep), on (fanout-bounded regions of\n"
      "                     at most 65536 devices), or an explicit region\n"
      "                     size N >= 1; reports are byte-identical at every\n"
      "                     value, sharding only reschedules the sweeps and\n"
      "                     adds the shards_* counters\n"
      "  --phase2-filter=<mode> Phase II prefilter strength: paths (default;\n"
      "                     signature check + supplemental path-label\n"
      "                     refuter), on (signature alone), or off (pure\n"
      "                     census); results are identical, the weaker modes\n"
      "                     exist for A/B perf comparison\n"
      "  --analyze=<mode>   pre-search static analysis: on (default) checks\n"
      "                     infeasibility certificates (a refuted pairing\n"
      "                     skips the search and reports why) and dedups\n"
      "                     symmetric exhaustive enumeration; off reproduces\n"
      "                     the pre-analyzer pipeline\n"
      "  --delta=FILE       find/extract: apply an ECO delta (JSON-lines,\n"
      "                     one op per line) to the host before matching\n"
      "  serve-only flags:\n"
      "  --serve-workers=<n>    concurrent request workers (default 1)\n"
      "  --max-pending=<n>      queued-request bound; beyond it requests\n"
      "                         are answered `overloaded` (default 64)\n"
      "  --max-request-bytes=<n> longest accepted request line; longer\n"
      "                         lines are answered `oversized` (default 1M)\n"
      "  --request-timeout=<sec> default per-request budget; an expired\n"
      "                         request answers `deadline_expired`\n"
      "  --socket=PATH          serve an AF_UNIX socket at PATH instead of\n"
      "                         stdin/stdout\n";
}

}  // namespace subg::cli

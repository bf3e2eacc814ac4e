// Matcher round-trip fuzz target. Any netlist the SPICE reader accepts (in
// recovering mode, so almost every input yields SOMETHING) must:
//   1. survive write → strict reparse — the writer's output is always a
//      valid deck;
//   2. reparse to a netlist gemini-isomorphic to the source less the nets
//      the writer omits (no pin, neither port nor global): a lost device,
//      pin, port or connected net still aborts;
//   3. be found whole when matched against itself, under a deadline that
//      must be honored (no unbounded search on adversarial inputs);
//   4. give the same instances with Phase II's fast path (the forced-pin
//      walk among it) off as on, whenever both runs are complete.
// Violations abort; rejected inputs (subg::Error) are not failures.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <vector>

#include "gemini/gemini.hpp"
#include "util/check.hpp"
#include "match/matcher.hpp"
#include "spice/spice.hpp"

namespace {

[[noreturn]] void die(const char* what, const std::string& deck) {
  std::fprintf(stderr, "fuzz_match_roundtrip: %s\ndeck:\n%s\n", what,
               deck.c_str());
  std::abort();
}

/// `source` without the nets spice::write cannot name: those with no pin
/// that are neither a port nor global. Everything else keeps its order.
subg::Netlist drop_unwritten_nets(const subg::Netlist& source) {
  subg::Netlist out(source.catalog_ptr(), source.name());
  std::vector<subg::NetId> image(source.net_count());
  for (std::uint32_t n = 0; n < source.net_count(); ++n) {
    const subg::NetId id(n);
    if (source.net_degree(id) == 0 && !source.is_port(id) &&
        !source.is_global(id)) {
      continue;
    }
    image[n] = out.add_net(source.net_name(id));
    if (source.is_global(id)) out.mark_global(image[n]);
  }
  for (const subg::NetId port : source.ports()) {
    out.mark_port(image[port.index()]);
  }
  std::vector<subg::NetId> pins;
  for (std::uint32_t d = 0; d < source.device_count(); ++d) {
    const subg::DeviceId id(d);
    pins.clear();
    for (const subg::NetId pin : source.device_pins(id)) {
      pins.push_back(image[pin.index()]);
    }
    out.add_device(source.device_type(id), pins, source.device_name(id));
  }
  return out;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size > (1u << 14)) return 0;
  const std::string_view text(reinterpret_cast<const char*>(data), size);

  std::optional<subg::Netlist> net;
  try {
    subg::DiagnosticSink sink;
    subg::spice::ReadOptions options;
    options.diagnostics = &sink;
    subg::Design design = subg::spice::read_string(text, options);
    if (design.flattened_device_count("main") > 64) return 0;
    net = design.flatten("main");
  } catch (const subg::Error&) {
    return 0;  // rejected input (recursive hierarchy etc.) — fine
  }
  if (net->device_count() == 0) return 0;

  const std::string written = subg::spice::write_string(*net);
  std::optional<subg::Netlist> back;
  try {
    back = subg::spice::read_flat(written);
  } catch (const subg::Error& e) {
    die(e.what(), written);
  }

  subg::CompareOptions compare;
  compare.budget = subg::Budget::after(2.0);
  subg::CompareResult same =
      subg::compare_netlists(drop_unwritten_nets(*net), *back, compare);
  if (!same.isomorphic && same.outcome == subg::RunOutcome::kComplete) {
    die(("round-trip not isomorphic: " + same.reason).c_str(), written);
  }

  // Self-match under a short deadline: instances found are verified, and
  // the run must come back even on maximally symmetric inputs.
  try {
    subg::MatchOptions options;
    options.budget = subg::Budget::after(0.2);
    subg::SubgraphMatcher matcher(*net, *net, options);
    subg::MatchReport report = matcher.find_all();
    if (report.count() == 0 && report.status.complete()) {
      die("complete self-match found nothing", written);
    }
    // The same self-match as the paper's pure census search: the walk
    // settles a candidate only when its verdict is exact.
    options.budget = subg::Budget::after(0.2);
    options.phase2_filter = subg::Phase2Filter::kOff;
    subg::SubgraphMatcher census(*net, *net, options);
    const subg::MatchReport off = census.find_all();
    if (report.status.complete() && off.status.complete()) {
      bool same_instances = report.count() == off.count();
      for (std::size_t i = 0; same_instances && i < off.count(); ++i) {
        same_instances =
            report.instances[i].device_image == off.instances[i].device_image &&
            report.instances[i].net_image == off.instances[i].net_image;
      }
      if (!same_instances) {
        die("self-match instances differ with the fast path off", written);
      }
    }
  } catch (const subg::Error&) {
    // Disconnected patterns, and patterns with a pinless net that is no
    // global rail, are rejected by the matcher up front.
  }
  return 0;
}

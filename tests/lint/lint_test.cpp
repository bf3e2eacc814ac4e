// Lint subsystem tests: check-by-check unit coverage over hand-built
// netlists/designs, report mechanics (caps, merge, rendering), the
// recovering-parser interaction, and byte-exact golden comparisons over the
// corpus in testdata/lint/ (mirroring the `subgemini lint` pipeline).
#include "lint/lint.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "netlist/catalog.hpp"
#include "netlist/design.hpp"
#include "netlist/netlist.hpp"
#include "obs/metrics.hpp"
#include "report/document.hpp"
#include "spice/spice.hpp"
#include "util/check.hpp"
#include "util/diagnostics.hpp"

namespace subg {
namespace {

using lint::Finding;
using lint::LintOptions;
using lint::LintReport;
using lint::RailClass;
using lint::Severity;

std::string render(const LintReport& report) {
  std::ostringstream os;
  report.write_text(os);
  return os.str();
}

/// Findings for one check id, in report order.
std::vector<const Finding*> of_check(const LintReport& report,
                                     std::string_view check) {
  std::vector<const Finding*> out;
  for (const Finding& f : report.findings) {
    if (f.check == check) out.push_back(&f);
  }
  return out;
}

Finding make_finding(const char* check, Severity sev, std::string msg) {
  Finding f;
  f.check = check;
  f.severity = sev;
  f.message = std::move(msg);
  return f;
}

// --- classify_rail ------------------------------------------------------

TEST(ClassifyRail, SupplyNames) {
  EXPECT_EQ(lint::classify_rail("vdd"), RailClass::kSupply);
  EXPECT_EQ(lint::classify_rail("VDD!"), RailClass::kSupply);
  EXPECT_EQ(lint::classify_rail("vdd3"), RailClass::kSupply);
  EXPECT_EQ(lint::classify_rail("VCC"), RailClass::kSupply);
  EXPECT_EQ(lint::classify_rail("pwr"), RailClass::kSupply);
  EXPECT_EQ(lint::classify_rail("POWER"), RailClass::kSupply);
}

TEST(ClassifyRail, GroundNames) {
  EXPECT_EQ(lint::classify_rail("gnd"), RailClass::kGround);
  EXPECT_EQ(lint::classify_rail("GND!"), RailClass::kGround);
  EXPECT_EQ(lint::classify_rail("vss"), RailClass::kGround);
  EXPECT_EQ(lint::classify_rail("0"), RailClass::kGround);
  EXPECT_EQ(lint::classify_rail("Ground"), RailClass::kGround);
}

TEST(ClassifyRail, OrdinaryNames) {
  EXPECT_EQ(lint::classify_rail("a"), RailClass::kNone);
  EXPECT_EQ(lint::classify_rail("out"), RailClass::kNone);
  EXPECT_EQ(lint::classify_rail("vd"), RailClass::kNone);
  EXPECT_EQ(lint::classify_rail("data0"), RailClass::kNone);
  EXPECT_EQ(lint::classify_rail(""), RailClass::kNone);
}

// --- LintReport mechanics ----------------------------------------------

TEST(LintReport, PerCheckCapSuppressesButStillTallies) {
  LintReport report;
  for (int i = 0; i < 5; ++i) {
    report.add(make_finding(lint::kDanglingNet, Severity::kWarning, "w"),
               /*max_per_check=*/2);
  }
  EXPECT_EQ(report.findings.size(), 2u);
  EXPECT_EQ(report.suppressed, 3u);
  // Severity tallies count every finding, stored or suppressed.
  EXPECT_EQ(report.warnings, 5u);
  EXPECT_FALSE(report.clean());
}

TEST(LintReport, CapIsPerCheckNotGlobal) {
  LintReport report;
  report.add(make_finding(lint::kDanglingNet, Severity::kWarning, "a"), 1);
  report.add(make_finding(lint::kUnusedNet, Severity::kInfo, "b"), 1);
  EXPECT_EQ(report.findings.size(), 2u);
  EXPECT_EQ(report.suppressed, 0u);
}

TEST(LintReport, MergeSumsTalliesAndPreservesOrder) {
  LintReport a;
  a.checks_run = 2;
  a.add(make_finding(lint::kFloatingGate, Severity::kError, "first"), 10);
  LintReport b;
  b.checks_run = 3;
  b.add(make_finding(lint::kDanglingNet, Severity::kWarning, "second"), 10);
  b.add(make_finding(lint::kUnusedNet, Severity::kInfo, "third"), 10);
  b.suppressed = 1;
  a.merge(std::move(b));
  EXPECT_EQ(a.checks_run, 5u);
  EXPECT_EQ(a.errors, 1u);
  EXPECT_EQ(a.warnings, 1u);
  EXPECT_EQ(a.infos, 1u);
  EXPECT_EQ(a.suppressed, 1u);
  ASSERT_EQ(a.findings.size(), 3u);
  EXPECT_EQ(a.findings[0].message, "first");
  EXPECT_EQ(a.findings[1].message, "second");
  EXPECT_EQ(a.findings[2].message, "third");
}

TEST(LintReport, MergeFoldsPerCheckCounts) {
  // The cap must hold across merged reports: one finding pre-merge and one
  // merged in leaves no headroom at max_per_check=2.
  LintReport a;
  a.add(make_finding(lint::kParse, Severity::kError, "one"), 2);
  LintReport b;
  b.add(make_finding(lint::kParse, Severity::kError, "two"), 2);
  a.merge(std::move(b));
  a.add(make_finding(lint::kParse, Severity::kError, "three"), 2);
  EXPECT_EQ(a.findings.size(), 2u);
  EXPECT_EQ(a.suppressed, 1u);
}

TEST(LintReport, WriteTextEmptyReportIsEmpty) {
  LintReport report;
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(render(report), "");
}

TEST(LintReport, WriteTextFormat) {
  LintReport report;
  report.checks_run = 4;
  Finding f = make_finding(lint::kFloatingGate, Severity::kError, "msg");
  f.nets = {"n1"};
  f.devices = {"m1", "m2"};
  report.add(std::move(f), 10);
  EXPECT_EQ(render(report),
            "error floating-gate: msg [nets: n1] [devices: m1 m2]\n"
            "# 4 checks, 1 errors, 0 warnings, 0 infos\n");
}

TEST(LintReport, FindingToStringIncludesModule) {
  Finding f = make_finding(lint::kSupplyShort, Severity::kError, "boom");
  f.module = "main";
  f.devices = {"x1"};
  EXPECT_EQ(f.to_string(), "error supply-short: boom [module: main] "
                           "[devices: x1]");
}

// --- flat netlist checks ------------------------------------------------

/// Inverter-shaped fixture with one extra net that only feeds MOS gates.
/// With `with_ports`, in/out are declared ports (floating gate is provably
/// internal → error); without, the deck is portless (→ warning).
Netlist floating_gate_netlist(bool with_ports) {
  auto cat = DeviceCatalog::cmos();
  Netlist n(cat);
  const DeviceTypeId nmos = cat->require("nmos");
  const DeviceTypeId pmos = cat->require("pmos");
  const NetId in = n.ensure_net("in");
  const NetId out = n.ensure_net("out");
  const NetId vdd = n.ensure_net("vdd");
  const NetId gnd = n.ensure_net("gnd");
  const NetId fl = n.ensure_net("float");
  n.mark_global(vdd);
  n.mark_global(gnd);
  if (with_ports) {
    n.mark_port(in);
    n.mark_port(out);
  }
  n.add_device(pmos, {out, in, vdd, vdd}, "mp1");
  n.add_device(nmos, {out, in, gnd, gnd}, "mn1");
  // 'float' touches only gate-class pins: no driver anywhere.
  n.add_device(pmos, {vdd, fl, vdd, vdd}, "mp2");
  n.add_device(nmos, {gnd, fl, gnd, gnd}, "mn2");
  return n;
}

TEST(LintNetlist, FloatingGateIsErrorWhenPortsDeclared) {
  const LintReport report = lint::lint_netlist(floating_gate_netlist(true));
  const auto found = of_check(report, lint::kFloatingGate);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0]->severity, Severity::kError);
  EXPECT_EQ(found[0]->nets, std::vector<std::string>{"float"});
  EXPECT_EQ(found[0]->devices, (std::vector<std::string>{"mp2", "mn2"}));
  EXPECT_TRUE(report.has_errors());
}

TEST(LintNetlist, FloatingGateDowngradesToWarningWithoutPorts) {
  // A portless deck cannot tell a primary input from a floating gate.
  const LintReport report = lint::lint_netlist(floating_gate_netlist(false));
  const auto found = of_check(report, lint::kFloatingGate);
  // 'in' is also gate-only once it is not a port.
  ASSERT_GE(found.size(), 1u);
  for (const Finding* f : found) EXPECT_EQ(f->severity, Severity::kWarning);
  EXPECT_FALSE(report.has_errors());
}

TEST(LintNetlist, CleanInverterHasNoFindings) {
  auto cat = DeviceCatalog::cmos();
  Netlist n(cat);
  const NetId in = n.ensure_net("in");
  const NetId out = n.ensure_net("out");
  const NetId vdd = n.ensure_net("vdd");
  const NetId gnd = n.ensure_net("gnd");
  n.mark_global(vdd);
  n.mark_global(gnd);
  n.mark_port(in);
  n.mark_port(out);
  n.add_device(cat->require("pmos"), {out, in, vdd, vdd}, "mp");
  n.add_device(cat->require("nmos"), {out, in, gnd, gnd}, "mn");
  const LintReport report = lint::lint_netlist(n);
  EXPECT_TRUE(report.clean()) << render(report);
  EXPECT_GT(report.checks_run, 0u);
}

TEST(LintNetlist, DanglingAndUnusedNets) {
  auto cat = DeviceCatalog::cmos();
  Netlist n(cat);
  const NetId a = n.ensure_net("a");
  const NetId b = n.ensure_net("b");
  n.mark_port(a);
  n.mark_port(b);
  const NetId dang = n.ensure_net("dang");
  n.ensure_net("ghost");  // zero terminals
  n.add_device(cat->require("res"), {a, b}, "r1");
  n.add_device(cat->require("res"), {a, dang}, "rstub");
  const LintReport report = lint::lint_netlist(n);
  const auto dangling = of_check(report, lint::kDanglingNet);
  ASSERT_EQ(dangling.size(), 1u);
  EXPECT_EQ(dangling[0]->severity, Severity::kWarning);
  EXPECT_EQ(dangling[0]->nets, std::vector<std::string>{"dang"});
  EXPECT_EQ(dangling[0]->devices, std::vector<std::string>{"rstub"});
  const auto unused = of_check(report, lint::kUnusedNet);
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0]->severity, Severity::kInfo);
  EXPECT_EQ(unused[0]->nets, std::vector<std::string>{"ghost"});
}

TEST(LintNetlist, PortsAndGlobalsAreExemptFromNetChecks) {
  // A declared port or rail with odd connectivity is the interface's
  // business, not lint's: only the unconnected-port check may fire.
  auto cat = DeviceCatalog::cmos();
  Netlist n(cat);
  const NetId a = n.ensure_net("a");
  const NetId vdd = n.ensure_net("vdd");
  n.mark_port(a);
  n.mark_global(vdd);
  n.add_device(cat->require("res"), {a, vdd}, "r1");
  const LintReport report = lint::lint_netlist(n);
  EXPECT_TRUE(of_check(report, lint::kDanglingNet).empty()) << render(report);
}

TEST(LintNetlist, UnconnectedPortAndPatternChecksGate) {
  auto cat = DeviceCatalog::cmos();
  Netlist n(cat);
  const NetId a = n.ensure_net("a");
  const NetId b = n.ensure_net("b");
  const NetId nc = n.ensure_net("nc");
  n.mark_port(a);
  n.mark_port(b);
  n.mark_port(nc);
  n.add_device(cat->require("res"), {a, b}, "r1");

  const LintReport with = lint::lint_netlist(n);
  const auto found = of_check(with, lint::kUnconnectedPort);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0]->severity, Severity::kError);
  EXPECT_EQ(found[0]->nets, std::vector<std::string>{"nc"});

  // Host decks run with pattern_checks off: the port check must not fire.
  LintOptions host;
  host.pattern_checks = false;
  const LintReport without = lint::lint_netlist(n, host);
  EXPECT_TRUE(of_check(without, lint::kUnconnectedPort).empty());
  EXPECT_LT(without.checks_run, with.checks_run);
}

TEST(LintNetlist, UnreachableIsland) {
  auto cat = DeviceCatalog::cmos();
  Netlist n(cat);
  const NetId in = n.ensure_net("in");
  const NetId out = n.ensure_net("out");
  const NetId vdd = n.ensure_net("vdd");
  const NetId gnd = n.ensure_net("gnd");
  n.mark_port(in);
  n.mark_port(out);
  n.mark_global(vdd);
  n.mark_global(gnd);
  n.add_device(cat->require("pmos"), {out, in, vdd, vdd}, "mp");
  n.add_device(cat->require("nmos"), {out, in, gnd, gnd}, "mn");
  // Island: touches neither a port nor a rail.
  const NetId i1 = n.ensure_net("i1");
  const NetId i2 = n.ensure_net("i2");
  n.add_device(cat->require("res"), {i1, i2}, "ri");
  const LintReport report = lint::lint_netlist(n);
  const auto found = of_check(report, lint::kUnreachable);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0]->severity, Severity::kWarning);
  EXPECT_EQ(found[0]->devices, std::vector<std::string>{"ri"});
}

TEST(LintNetlist, FindingsAreDeterministic) {
  const Netlist n = floating_gate_netlist(true);
  const std::string first = render(lint::lint_netlist(n));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(render(lint::lint_netlist(n)), first);
  }
}

TEST(LintNetlist, CapBoundsReportOnSickDeck) {
  // 50 dangling nets with a cap of 5: report stays small, nothing is lost
  // from the tallies.
  auto cat = DeviceCatalog::cmos();
  Netlist n(cat);
  const NetId hub = n.ensure_net("hub");
  n.mark_port(hub);
  for (int i = 0; i < 50; ++i) {
    const NetId d = n.ensure_net("d" + std::to_string(i));
    n.add_device(cat->require("res"), {hub, d},
                 "r" + std::to_string(i));
  }
  LintOptions lo;
  lo.max_findings_per_check = 5;
  const LintReport report = lint::lint_netlist(n, lo);
  EXPECT_EQ(of_check(report, lint::kDanglingNet).size(), 5u);
  EXPECT_EQ(report.warnings, 50u);
  EXPECT_EQ(report.suppressed, 45u);
  EXPECT_FALSE(report.clean());
}

// --- design-level checks ------------------------------------------------

TEST(LintDesign, DuplicateInstanceName) {
  auto cat = DeviceCatalog::cmos();
  Design d(cat);
  const ModuleId inv = d.add_module("inv", {"in", "out", "vdd", "gnd"});
  {
    Module& m = d.module(inv);
    m.add_device(cat->require("pmos"),
                 {m.ensure_net("out"), m.ensure_net("in"),
                  m.ensure_net("vdd"), m.ensure_net("vdd")},
                 "mp");
  }
  const ModuleId top = d.add_module("top");
  Module& m = d.module(top);
  const NetId a = m.ensure_net("a");
  const NetId b = m.ensure_net("b");
  const NetId c = m.ensure_net("c");
  const NetId vdd = m.ensure_net("vdd");
  const NetId gnd = m.ensure_net("gnd");
  m.add_instance(inv, {a, b, vdd, gnd}, "x1");
  m.add_instance(inv, {b, c, vdd, gnd}, "x1");
  const LintReport report = lint::lint_design(d);
  const auto found = of_check(report, lint::kDuplicateInstance);
  ASSERT_EQ(found.size(), 1u);  // each duplicated name reported once
  EXPECT_EQ(found[0]->severity, Severity::kError);
  EXPECT_EQ(found[0]->module, "top");
  EXPECT_EQ(found[0]->devices, std::vector<std::string>{"x1"});
}

/// inv child plus one top instance binding (supply_actual, ground_actual)
/// to the child's (vdd, gnd) ports.
Design rail_design(const char* supply_actual, const char* ground_actual) {
  auto cat = DeviceCatalog::cmos();
  Design d(cat);
  const ModuleId inv = d.add_module("inv", {"in", "out", "vdd", "gnd"});
  {
    Module& m = d.module(inv);
    m.add_device(cat->require("pmos"),
                 {m.ensure_net("out"), m.ensure_net("in"),
                  m.ensure_net("vdd"), m.ensure_net("vdd")},
                 "mp");
    m.add_device(cat->require("nmos"),
                 {m.ensure_net("out"), m.ensure_net("in"),
                  m.ensure_net("gnd"), m.ensure_net("gnd")},
                 "mn");
  }
  const ModuleId top = d.add_module("top");
  Module& m = d.module(top);
  m.add_instance(inv,
                 {m.ensure_net("a"), m.ensure_net("b"),
                  m.ensure_net(supply_actual), m.ensure_net(ground_actual)},
                 "x1");
  return d;
}

TEST(LintDesign, SupplyShortThroughZeroDevicePath) {
  const Design d = rail_design("vdd", "vdd");
  const LintReport report = lint::lint_design(d);
  const auto shorts = of_check(report, lint::kSupplyShort);
  ASSERT_EQ(shorts.size(), 1u);
  EXPECT_EQ(shorts[0]->severity, Severity::kError);
  EXPECT_EQ(shorts[0]->nets, std::vector<std::string>{"vdd"});
  EXPECT_EQ(shorts[0]->devices, std::vector<std::string>{"x1"});
  // Binding supply net 'vdd' to ground port 'gnd' is also a mismatch.
  EXPECT_EQ(of_check(report, lint::kRailMismatch).size(), 1u);
}

TEST(LintDesign, RailMismatchOnSwappedRails) {
  const Design d = rail_design("gnd", "vdd");
  const LintReport report = lint::lint_design(d);
  EXPECT_EQ(of_check(report, lint::kRailMismatch).size(), 2u);
  // Two different nets: mismatched polarity, but no short.
  EXPECT_TRUE(of_check(report, lint::kSupplyShort).empty());
}

TEST(LintDesign, CleanBindingHasNoFindings) {
  const Design d = rail_design("vdd", "gnd");
  const LintReport report = lint::lint_design(d);
  EXPECT_TRUE(report.clean()) << render(report);
}

// --- parser-diagnostic import and recovery interaction ------------------

TEST(ImportDiagnostics, SurfacesParseFindings) {
  DiagnosticSink sink;
  spice::ReadOptions opts;
  opts.diagnostics = &sink;
  opts.filename = "bad.sp";
  const Design d = spice::read_string(
      ".subckt top in out vdd gnd\n"
      "mp out in vdd vdd pmos\n"
      "mbad out in gnd nmos\n"
      ".ends\n",
      opts);
  ASSERT_EQ(sink.error_count(), 1u);
  const LintReport report = lint::import_diagnostics(sink);
  const auto found = of_check(report, lint::kParse);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0]->severity, Severity::kError);
  EXPECT_NE(found[0]->message.find("bad.sp:3:"), std::string::npos)
      << found[0]->message;
  // Recovery kept the rest of the module: lint still runs on it.
  const LintReport flat = lint::lint_netlist(d.flatten("top"));
  EXPECT_GT(flat.checks_run, 0u);
}

TEST(ImportDiagnostics, SinkOverflowCountsAsSuppressed) {
  DiagnosticSink sink(/*max_diagnostics=*/2);
  spice::ReadOptions opts;
  opts.diagnostics = &sink;
  std::string deck;
  for (int i = 0; i < 5; ++i) deck += "mbad out in gnd nmos\n";
  (void)spice::read_string(deck, opts);
  ASSERT_EQ(sink.diagnostics().size(), 2u);
  ASSERT_EQ(sink.dropped(), 3u);
  const LintReport report = lint::import_diagnostics(sink);
  EXPECT_EQ(of_check(report, lint::kParse).size(), 2u);
  EXPECT_EQ(report.suppressed, 3u);
  EXPECT_FALSE(report.clean());
}

// --- metrics sink -------------------------------------------------------

TEST(LintMetrics, CountersRecorded) {
  obs::Metrics metrics;
  LintOptions lo;
  lo.metrics = &metrics;
  (void)lint::lint_netlist(floating_gate_netlist(true), lo);
  const obs::Snapshot snap = metrics.collect();
  EXPECT_GT(snap.counter("lint.checks"), 0u);
  EXPECT_GT(snap.counter("lint.findings"), 0u);
  EXPECT_GT(snap.counter("lint.errors"), 0u);
}

// --- corpus goldens -----------------------------------------------------
//
// Mirrors cmd_lint's spice pipeline (recovering parse → diagnostics →
// design checks → flatten → flat checks) with two normalizations that keep
// the goldens path-stable: the parser sees the bare basename as its
// filename, and a flatten failure is reported with a fixed message instead
// of the throw site's absolute __FILE__ path.

std::string read_file_or_die(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  SUBG_CHECK_MSG(in.good(), "cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

LintReport corpus_lint(const std::string& stem, const std::string& top) {
  const std::string dir = std::string(SUBG_TESTDATA_DIR) + "/lint/";
  DiagnosticSink sink;
  spice::ReadOptions opts;
  opts.diagnostics = &sink;
  opts.filename = stem + ".sp";
  const Design design =
      spice::read_string(read_file_or_die(dir + stem + ".sp"), opts);
  LintOptions lo;
  LintReport report;
  report.merge(lint::import_diagnostics(sink, lo));
  report.merge(lint::lint_design(design, lo));
  try {
    const Netlist flat = design.flatten(top);
    report.merge(lint::lint_netlist(flat, lo));
  } catch (const Error&) {
    Finding f =
        make_finding(lint::kFlatten, Severity::kError, "netlist flatten failed");
    LintReport flatten_report;
    flatten_report.checks_run = 1;
    flatten_report.add(std::move(f), lo.max_findings_per_check);
    report.merge(std::move(flatten_report));
  }
  return report;
}

struct CorpusCase {
  const char* stem;
  const char* top;
  int errors;
  int warnings;
};

/// Printed into the test name (gtest would dump the struct's raw bytes,
/// pointers included, which differ on every run).
void PrintTo(const CorpusCase& c, std::ostream* os) {
  *os << c.stem << " top " << c.top << ", " << c.errors << " errors, "
      << c.warnings << " warnings";
}

class LintCorpus : public ::testing::TestWithParam<CorpusCase> {};

/// Byte-compare `actual` against a golden file; SUBG_UPDATE_GOLDENS=1
/// rewrites the file instead (same contract as the report goldens).
void compare_against_golden(const std::string& actual,
                            const std::string& path) {
  if (std::getenv("SUBG_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write golden " << path;
    out << actual;
    return;
  }
  EXPECT_EQ(actual, read_file_or_die(path)) << "diverged from " << path;
}

TEST_P(LintCorpus, MatchesGolden) {
  const CorpusCase& c = GetParam();
  const LintReport report = corpus_lint(c.stem, c.top);
  EXPECT_EQ(static_cast<int>(report.errors), c.errors);
  EXPECT_EQ(static_cast<int>(report.warnings), c.warnings);
  const std::string dir = std::string(SUBG_TESTDATA_DIR) + "/lint/golden/";
  compare_against_golden(render(report), dir + c.stem + ".txt");
  // The JSON goldens pin the schema-v1 "lint" member byte-for-byte —
  // additive-only, so a diff here is an intentional schema change.
  compare_against_golden(report::to_json(report).dump() + "\n",
                         dir + c.stem + ".json");
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, LintCorpus,
    ::testing::Values(CorpusCase{"clean", "buf", 0, 0},
                      CorpusCase{"floating_gate", "top", 1, 0},
                      CorpusCase{"dangling_net", "top", 0, 1},
                      CorpusCase{"unconnected_port", "top", 1, 0},
                      CorpusCase{"supply_short", "main", 1, 2},
                      CorpusCase{"duplicate_instance", "main", 2, 0},
                      CorpusCase{"arity_mismatch", "top", 1, 0},
                      CorpusCase{"unreachable", "top", 0, 2}),
    [](const ::testing::TestParamInfo<CorpusCase>& param_info) {
      return std::string(param_info.param.stem);
    });

}  // namespace
}  // namespace subg

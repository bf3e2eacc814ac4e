// Experiment E5 — the paper's headline claim (abstract, §I):
//
//   "the typical running time for large CMOS circuits is approximately
//    linear in the total number of devices within the subcircuits being
//    matched."
//
// We sweep host size on two families (ripple-carry adders searched for
// fulladder cells; SRAM arrays searched for 6T cells), measure the total
// matching time, and regress it against the total matched-device count.
// The regenerated figure is the printed (x, y) series; the fit's R² and
// the log-log scaling exponent quantify "approximately linear" (exponent
// ≈ 1).
//
// --format=json emits the series tables, fits (report::to_json(LinearFit)),
// and scaling exponents as one schema_version-1 document.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.hpp"

namespace subg::bench {
namespace {

struct Point {
  std::size_t host_devices;
  std::size_t matched_devices;
  double ms;
};

/// The sweep config: quick mode (CI bench gate) trims the size ladder and
/// the timing reps — the deterministic counters are identical per size
/// either way, only the regression quality degrades.
struct SweepConfig {
  bool quick = false;
};

std::vector<Point> sweep_adders(cells::CellLibrary& lib,
                                const SweepConfig& cfg,
                                std::vector<MatchRow>* rows) {
  std::vector<Point> pts;
  Netlist pattern = lib.pattern("fulladder");
  const std::vector<int> sizes =
      cfg.quick ? std::vector<int>{8, 16, 32}
                : std::vector<int>{8, 16, 32, 64, 128, 256, 512};
  const int reps = cfg.quick ? 1 : 3;
  for (int bits : sizes) {
    gen::Generated g = gen::ripple_carry_adder(bits);
    // Best-of-`reps` timing; the counters are rep-invariant.
    double best_ms = 1e100;
    MatchRow row;
    for (int rep = 0; rep < reps; ++rep) {
      row = run_match("rca" + std::to_string(bits), g.netlist, "fulladder",
                      pattern, g.placed_count("fulladder"));
      best_ms = std::min(best_ms, row.phase1_ms + row.phase2_ms);
    }
    pts.push_back(
        {g.netlist.device_count(), row.found * pattern.device_count(),
         best_ms});
    if (rows != nullptr) rows->push_back(row);
  }
  return pts;
}

std::vector<Point> sweep_sram(cells::CellLibrary& lib, const SweepConfig& cfg,
                              std::vector<MatchRow>* rows) {
  std::vector<Point> pts;
  Netlist pattern = lib.pattern("sram6t");
  const std::vector<int> sizes =
      cfg.quick ? std::vector<int>{16, 32}
                : std::vector<int>{16, 32, 64, 128, 256, 512};
  const int reps = cfg.quick ? 1 : 3;
  for (int cols : sizes) {
    gen::Generated g = gen::sram_array(16, cols);
    double best_ms = 1e100;
    MatchRow row;
    for (int rep = 0; rep < reps; ++rep) {
      row = run_match("sram16x" + std::to_string(cols), g.netlist, "sram6t",
                      pattern, g.placed_count("sram6t"));
      best_ms = std::min(best_ms, row.phase1_ms + row.phase2_ms);
    }
    pts.push_back(
        {g.netlist.device_count(), row.found * pattern.device_count(),
         best_ms});
    if (rows != nullptr) rows->push_back(row);
  }
  return pts;
}

/// One family's series table plus its regression numbers.
struct Series {
  std::string name;
  report::Table table;
  report::LinearFit fit;
  double exponent = 0;
};

Series make_series(const char* name, const std::vector<Point>& pts) {
  Series out{name,
             report::Table({"host devices", "matched devices", "time ms",
                            "us per matched device"}),
             {},
             0};
  for (std::size_t c = 0; c < 4; ++c) out.table.align_right(c);
  std::vector<double> x, y;
  for (const Point& p : pts) {
    out.table.add_row(
        {with_commas(static_cast<long long>(p.host_devices)),
         with_commas(static_cast<long long>(p.matched_devices)),
         format_fixed(p.ms, 2),
         format_fixed(p.ms * 1e3 / static_cast<double>(p.matched_devices),
                      3)});
    x.push_back(static_cast<double>(p.matched_devices));
    y.push_back(p.ms);
  }
  out.fit = report::fit_line(x, y);
  out.exponent = report::scaling_exponent(x, y);
  return out;
}

void print_series(const Series& series) {
  std::printf("\n%s\n", series.name.c_str());
  std::string s = series.table.to_string();
  std::fputs(s.c_str(), stdout);
  std::printf("linear fit: time_ms = %.6f * matched + %.3f   R^2 = %.4f\n",
              series.fit.slope, series.fit.intercept, series.fit.r2);
  std::printf("log-log scaling exponent: %.3f (paper claims ~1.0)\n",
              series.exponent);
}

json::Value series_json(const Series& series) {
  json::Value v = json::Value::object();
  v.set("name", series.name);
  v.set("table", report::to_json(series.table));
  v.set("fit", report::to_json(series.fit));
  v.set("scaling_exponent", series.exponent);
  return v;
}

}  // namespace
}  // namespace subg::bench

int main(int argc, char** argv) {
  using namespace subg::bench;
  subg::cli::Format format = subg::cli::Format::kText;
  SweepConfig cfg;
  if (int code = parse_bench_args("bench_linearity", argc, argv, &format,
                                  &cfg.quick)) {
    return code;
  }

  subg::cells::CellLibrary lib;
  std::vector<MatchRow> rows;
  Series adders = make_series("fulladder in ripple-carry adders",
                              sweep_adders(lib, cfg, &rows));
  Series sram = make_series("sram6t in 16-row SRAM arrays",
                            sweep_sram(lib, cfg, &rows));

  // Per-jobs scaling on the largest host of each family. The candidate
  // sweep parallelizes over Phase II seeds, so speedup tracks the seed
  // count; the found-count must be identical at every lane count. Quick
  // mode skips it — the gate compares counters, not lane speedups.
  std::vector<ScalingRow> rca_scaling;
  std::vector<ScalingRow> sram_scaling;
  if (!cfg.quick) {
    {
      subg::gen::Generated g = subg::gen::ripple_carry_adder(512);
      rca_scaling = jobs_scaling(lib.pattern("fulladder"), g.netlist);
    }
    {
      subg::gen::Generated g = subg::gen::sram_array(16, 512);
      sram_scaling = jobs_scaling(lib.pattern("sram6t"), g.netlist);
    }
  }

  if (format == subg::cli::Format::kJson) {
    subg::report::Document doc("bench_linearity", "E5");
    doc.set("quick", cfg.quick);
    subg::json::Value series = subg::json::Value::array();
    series.push(series_json(adders));
    series.push(series_json(sram));
    doc.set("series", std::move(series));
    doc.set("counters", counters_json(rows));
    doc.set("timings", timings_json(rows));
    if (!cfg.quick) {
      subg::json::Value scaling = subg::json::Value::array();
      scaling.push(scaling_json("fulladder in rca512", rca_scaling));
      scaling.push(scaling_json("sram6t in sram16x512", sram_scaling));
      doc.set("scaling", std::move(scaling));
    }
    doc.write(std::cout);
    return 0;
  }

  std::printf("E5: running time vs total devices inside matched subcircuits\n");
  print_series(adders);
  print_series(sram);
  if (!cfg.quick) {
    print_scaling("fulladder in rca512", rca_scaling);
    print_scaling("sram6t in sram16x512", sram_scaling);
  }
  return 0;
}

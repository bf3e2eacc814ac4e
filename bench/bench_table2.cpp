// Experiment E6 — the paper's §VI results table (Table-2 style).
//
// The original table reports, per (main circuit, subcircuit) pair, the
// number of instances found and the Phase I / Phase II running times on the
// authors' proprietary CMOS chips. We regenerate the same row format over
// open parameterized workloads (DESIGN.md §4). Absolute milliseconds are
// machine artifacts; the shape to check is: instance counts match the
// construction ground truth, the candidate vector is close to the instance
// count (Phase I filters well), and times stay small even at 10^5 devices.
//
// --format=json emits the same results as one schema_version-1 document
// (tables serialized via report::to_json) instead of the ASCII rendering.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"

namespace subg::bench {
namespace {

void run(cli::Format format, bool quick) {
  cells::CellLibrary lib;
  std::vector<MatchRow> rows;

  auto add = [&](const std::string& name, const gen::Generated& g,
                 std::initializer_list<const char*> cell_names) {
    for (const char* cell : cell_names) {
      rows.push_back(run_match(name, g.netlist, cell, lib.pattern(cell),
                               g.placed_count(cell)));
    }
  };

  if (quick) {
    // Reduced deterministic workloads for the CI bench-regression gate:
    // same generators and seeds, smaller sizes, every match family still
    // represented (refinement, symmetric guessing, sequential cells).
    add("c17", gen::c17(), {"nand2"});
    add("rca16", gen::ripple_carry_adder(16), {"fulladder", "xor2"});
    add("sram16x32", gen::sram_array(16, 32), {"sram6t", "inv"});
    add("rf4x8", gen::register_file(4, 8), {"dff", "mux2"});
    add("parity64", gen::parity_tree(64), {"xor2"});
    add("soup2k", gen::logic_soup(2000, 1234), {"nand2", "nor2", "dff"});
  } else {
    add("c17", gen::c17(), {"nand2"});
    add("rca64", gen::ripple_carry_adder(64), {"fulladder", "xor2", "nand2"});
    add("mul16", gen::array_multiplier(16),
        {"fulladder", "halfadder", "nand2", "inv"});
    add("sram16x128", gen::sram_array(16, 128), {"sram6t", "nand4", "inv"});
    add("rf16x32", gen::register_file(16, 32), {"dff", "dlatch", "mux2"});
    add("ks64", gen::kogge_stone_adder(64), {"aoi21", "xor2", "nand2"});
    add("parity256", gen::parity_tree(256), {"xor2", "inv"});
    add("soup20k", gen::logic_soup(20000, 1234),
        {"nand2", "nor2", "aoi21", "xor2", "mux2", "dff"});
  }

  // Per-jobs scaling on the two seed-heaviest rows: the candidate sweep
  // runs Phase II seeds on parallel lanes, so these are the workloads
  // where --jobs can pay off. Counts must be identical at every lane
  // count (the determinism contract). Quick mode skips it — the gate
  // compares counters, not lane speedups.
  std::vector<ScalingRow> soup_scaling;
  std::vector<ScalingRow> mul_scaling;
  if (!quick) {
    {
      gen::Generated g = gen::logic_soup(20000, 1234);
      soup_scaling = jobs_scaling(lib.pattern("nand2"), g.netlist);
    }
    {
      gen::Generated g = gen::array_multiplier(16);
      mul_scaling = jobs_scaling(lib.pattern("fulladder"), g.netlist);
    }
  }

  if (format == cli::Format::kJson) {
    write_quick_doc("bench_table2", "E6", quick, rows,
                    counters_json(rows), {}, [&](report::Document& doc) {
                      if (quick) return;
                      json::Value scaling = json::Value::array();
                      scaling.push(scaling_json("nand2 in soup20k",
                                                soup_scaling));
                      scaling.push(scaling_json("fulladder in mul16",
                                                mul_scaling));
                      doc.set("scaling", std::move(scaling));
                    });
    return;
  }

  std::printf("E6: gate finding in generated CMOS circuits "
              "(Table-2-style rows)\n\n");
  print_rows(rows);
  if (!quick) {
    print_scaling("nand2 in soup20k", soup_scaling);
    print_scaling("fulladder in mul16", mul_scaling);
  }
  std::printf(
      "\nNotes:\n"
      " - 'expected' is the construction-placed count; 'found' may exceed it\n"
      "   when the workload contains incidental structural copies (e.g. the\n"
      "   dlatch instances inside every dff, inverters inside xor cells).\n"
      " - CV is the Phase I candidate vector size: the number of Phase II\n"
      "   verification attempts.\n");
}

}  // namespace
}  // namespace subg::bench

int main(int argc, char** argv) {
  subg::cli::Format format = subg::cli::Format::kText;
  bool quick = false;
  if (int code = subg::bench::parse_bench_args("bench_table2", argc, argv,
                                               &format, &quick)) {
    return code;
  }
  subg::bench::run(format, quick);
  return 0;
}

"""Seeded SPICE inputs for the benchmark.

The library is nine single-stage static CMOS cells. None of them contains
another as a port-bounded subcircuit, and every device of a cell reaches the
cell's output through its own source/drain nets, so a pattern instance can
never straddle two cells. That makes the expected answer of every `find` and
`extract` exact and cheap to check: the instances of cell C are exactly the
host instances placed as C.

A host is a random gate-level DAG over that library, written hierarchically
(`.subckt` definitions plus one `x<i>` card per placed cell), so the program
parses and flattens it to transistors itself. The cell mix is fixed by the
size, the seed only picks the order and the wiring: every seed gives the
program the same amount of work of the same shape.
"""

import random

# name -> (input pins, devices as (kind, drain, gate, source)); output is y.
CELLS = {
    "inv": ("a", [("p", "y", "a", "vdd"), ("n", "y", "a", "gnd")]),
    "nand2": ("a b", [("p", "y", "a", "vdd"), ("p", "y", "b", "vdd"),
                      ("n", "y", "a", "x"), ("n", "x", "b", "gnd")]),
    "nand3": ("a b c", [("p", "y", "a", "vdd"), ("p", "y", "b", "vdd"),
                        ("p", "y", "c", "vdd"), ("n", "y", "a", "x0"),
                        ("n", "x0", "b", "x1"), ("n", "x1", "c", "gnd")]),
    "nor2": ("a b", [("p", "u", "a", "vdd"), ("p", "y", "b", "u"),
                     ("n", "y", "a", "gnd"), ("n", "y", "b", "gnd")]),
    "nor3": ("a b c", [("p", "u0", "a", "vdd"), ("p", "u1", "b", "u0"),
                       ("p", "y", "c", "u1"), ("n", "y", "a", "gnd"),
                       ("n", "y", "b", "gnd"), ("n", "y", "c", "gnd")]),
    "aoi21": ("a b c", [("n", "y", "a", "x"), ("n", "x", "b", "gnd"),
                        ("n", "y", "c", "gnd"), ("p", "u", "a", "vdd"),
                        ("p", "u", "b", "vdd"), ("p", "y", "c", "u")]),
    "oai21": ("a b c", [("p", "u", "a", "vdd"), ("p", "y", "b", "u"),
                        ("p", "y", "c", "vdd"), ("n", "x", "a", "gnd"),
                        ("n", "x", "b", "gnd"), ("n", "y", "c", "x")]),
    "aoi22": ("a b c d", [("n", "y", "a", "x0"), ("n", "x0", "b", "gnd"),
                          ("n", "y", "c", "x1"), ("n", "x1", "d", "gnd"),
                          ("p", "u", "a", "vdd"), ("p", "u", "b", "vdd"),
                          ("p", "y", "c", "u"), ("p", "y", "d", "u")]),
    "oai22": ("a b c d", [("p", "u0", "a", "vdd"), ("p", "y", "b", "u0"),
                          ("p", "u1", "c", "vdd"), ("p", "y", "d", "u1"),
                          ("n", "y", "a", "x"), ("n", "y", "b", "x"),
                          ("n", "x", "c", "gnd"), ("n", "x", "d", "gnd")]),
}

# Relative frequency of each cell in a host, roughly a synthesized netlist's.
MIX = {"inv": 6, "nand2": 5, "nor2": 3, "nand3": 2, "nor3": 1, "aoi21": 2,
       "oai21": 2, "aoi22": 1, "oai22": 1}

PRIMARY_INPUTS = 64
# Cells take their inputs from the most recent nets, as placed logic does;
# the window sets the fanout spread.
WINDOW = 256


def subckt(name):
    inputs, devices = CELLS[name]
    lines = [f".subckt {name} {inputs} y"]
    counts = {"p": 0, "n": 0}
    for kind, drain, gate, source in devices:
        rail = "vdd" if kind == "p" else "gnd"
        lines.append(f"m{kind}{counts[kind]} {drain} {gate} {source} {rail} "
                     f"{kind}mos")
        counts[kind] += 1
    lines.append(".ends")
    return "\n".join(lines)


def library_deck(names=None):
    """The library as one deck; `names` picks a subset (one pattern)."""
    names = list(CELLS) if names is None else names
    body = "\n\n".join(subckt(name) for name in names)
    return f"* static CMOS cell library\n.global vdd gnd\n\n{body}\n.end\n"


def cell_mix(cells):
    """Placed count per cell type for a host of `cells` cells."""
    total = sum(MIX.values())
    counts = {name: cells * weight // total for name, weight in MIX.items()}
    counts["inv"] += cells - sum(counts.values())
    return counts


def host_deck(cells, seed):
    """A random host of `cells` placed cells.

    Returns (deck text, {cell type: set of instance names}).
    """
    rng = random.Random(seed)
    order = [name for name, count in cell_mix(cells).items()
             for _ in range(count)]
    rng.shuffle(order)
    nets = [f"in{i}" for i in range(PRIMARY_INPUTS)]
    placed = {name: set() for name in CELLS}
    cards = []
    for index, name in enumerate(order):
        arity = len(CELLS[name][0].split())
        inputs = rng.sample(nets[-WINDOW:], arity)
        out = f"n{index}"
        instance = f"x{index}"
        cards.append(f"{instance} {' '.join(inputs)} {out} {name}")
        placed[name].add(instance)
        nets.append(out)
    deck = (f"* random gate-level host, {cells} cells, seed {seed}\n"
            ".global vdd gnd\n\n"
            + "\n\n".join(subckt(name) for name in CELLS)
            + "\n\n" + "\n".join(cards) + "\n.end\n")
    return deck, placed


def transistor_count(placed):
    return sum(len(CELLS[name][1]) * len(names)
               for name, names in placed.items())

"""Seeded input files for the benchmark workloads.

Run as a script, this is the set-up step whose wall time the benchmark
reports as ``setup_s``: interpreter start, ``import mishit.cli`` and writing
the workload's graph files through the program's own constructors and writers.

    python3 perfbench/inputs.py --workload hitting --seed 1 --out DIR

Only the hitting workload has a seeded input file, G(40, 0.15); the other
graphs are fixed, and the seed reaches the deletion and corpus workloads
through the CLI's own ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import mishit.cli  # noqa: E402,F401  -- importing the CLI is part of the set-up being timed
from mishit import families, graph  # noqa: E402
from mishit.graph import Graph  # noqa: E402

GNP_N = 40
GNP_P = 0.15
CYCLE_N = 8


def disjoint_union(*graphs: Graph) -> Graph:
    edges = []
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges())
        offset += g.n
    return Graph.from_edges(offset, edges)


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def make_inputs(workload: str, seed: int, out: Path) -> dict[str, str]:
    """Write the workload's graph files into ``out``; returns name -> path.

    mishit.graph functions are called through the module, so a tracer that
    patches that namespace sees the set-up's random-graph and IO work.
    """
    graphs: dict[str, Graph] = {}
    if workload == "hitting":
        graphs["shift4"], _ = families.build_shift_graph(4)
        graphs["gnp"] = graph.random_graph(GNP_N, GNP_P, seed)
    elif workload == "deletion":
        g2, _ = families.build_shift_graph(2)
        graphs["g2x4"] = disjoint_union(g2, g2, g2, g2)
        graphs["g2x2"] = disjoint_union(g2, g2)
        graphs["g2c8"] = disjoint_union(g2, cycle(CYCLE_N))
    paths = {}
    for name, g in graphs.items():
        paths[name] = str(out / f"{name}.json")
        graph.save_graph(g, paths[name])
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    make_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

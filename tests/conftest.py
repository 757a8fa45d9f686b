"""Brute-force oracles shared across the suite.

These deliberately avoid the package's branch-and-bound path: independence is
checked pair by pair against the adjacency rows, and alpha by scanning all
2^n subsets.  Keep n small wherever they are used.  The ``cli_json``
fixture is not an oracle: it shares one CLI run between the tests that pin
that run's output.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from mishit import hitting
from mishit.cli import main
from mishit.graph import Graph, VertexSet, random_graph


def oracle_is_independent(g: Graph, bits: int) -> bool:
    members = [v for v in range(g.n) if bits >> v & 1]
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            if g.adj[u] >> v & 1:
                return False
    return True


def oracle_alpha(g: Graph) -> int:
    assert g.n <= 16, "oracle scans all subsets"
    best = 0
    for bits in range(1 << g.n):
        if bits.bit_count() > best and oracle_is_independent(g, bits):
            best = bits.bit_count()
    return best


def oracle_mis_masks(g: Graph) -> list[int]:
    a = oracle_alpha(g)
    return sorted(
        bits
        for bits in range(1 << g.n)
        if bits.bit_count() == a and oracle_is_independent(g, bits)
    )


def seeded_graphs(count: int, seed: int, n_lo: int = 1, n_hi: int = 12):
    """Deterministic stream of random test graphs."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(n_lo, n_hi + 1))
        p = float(rng.uniform(0.1, 0.9))
        yield random_graph(n, p, rng)


def vertex_set(n: int, members) -> VertexSet:
    """The VertexSet of ``members`` in {0..n-1}; a member out of range raises ValueError."""
    bits = 0
    for v in members:
        bits |= 1 << int(v)
    return VertexSet(n, bits)


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def disjoint_union(*graphs: Graph) -> Graph:
    """Copies side by side: vertex v of the i-th graph gets index v plus the sizes before it."""
    edges = []
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges())
        offset += g.n
    return Graph.from_edges(offset, edges)


def lex_product(g: Graph, h: Graph) -> Graph:
    """G∘H: each vertex u of G becomes a copy of H on u*|H| .. u*|H| + |H| - 1,
    and two copies are joined completely when their vertices are adjacent in G."""
    inside = [(u * h.n + x, u * h.n + y) for u in range(g.n) for x, y in h.edges()]
    across = [(u * h.n + x, v * h.n + y) for u, v in g.edges() for x in range(h.n) for y in range(h.n)]
    return Graph.from_edges(g.n * h.n, inside + across)


def hub_graph(k: int) -> Graph:
    """k triangles (a_i, b_i, c_i) = (3i, 3i+1, 3i+2) and a hub 3k joined to
    every a_i: alpha = k + 1 and 2^k maximum independent sets, the hub with
    one of b_i, c_i from each triangle."""
    edges = [(3 * i + u, 3 * i + v) for i in range(k) for u, v in ((0, 1), (1, 2), (0, 2))]
    return Graph.from_edges(3 * k + 1, edges + [(3 * k, 3 * i) for i in range(k)])


def run_fresh_python(script: str) -> str:
    """stdout of ``script`` run in a fresh interpreter that imports this
    suite's ``mishit``; fails the test on a nonzero exit."""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture(scope="session")
def cli_json(tmp_path_factory):
    """``cli_json(*argv)`` runs ``main([*argv, "--json", path])`` once per
    argv in the session and returns its exit code, the JSON bytes and the
    (set, keyword arguments) of each ``hitting.min_hitting_set`` call.  The
    tests that pin one run's output share it: ``hamming --m 6 --t 2`` alone
    takes seconds."""
    runs = {}

    def run(*argv):
        if argv not in runs:
            out = tmp_path_factory.mktemp("cli") / "r.json"
            hits = []
            search = hitting.min_hitting_set

            def recording(family, **kwargs):
                hit = search(family, **kwargs)
                hits.append((hit, kwargs))
                return hit

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(hitting, "min_hitting_set", recording)
                code = main([*argv, "--json", str(out)])
            runs[argv] = code, out.read_bytes(), hits
        return runs[argv]

    return run

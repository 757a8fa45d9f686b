"""Kernel/corona structure and the two verification corpora."""

import numpy as np
import pytest

import mishit.hajnal
from conftest import hub_graph, oracle_mis_masks, seeded_graphs
from mishit.families import build_shift_graph, shift_mis_family
from mishit.graph import DEFAULT_MIS_CAP, Graph, VertexSet, enumerate_mis
from mishit.hajnal import (
    all_graphs_kernel_stats,
    exhaustive_corpus_check,
    exhaustive_corpus_rows,
    kernel_corona,
    random_corpus_check,
)


def test_edgeless_kernel_is_everything():
    r = kernel_corona(Graph.empty(4))
    assert r.alpha == 4
    assert r.kernel.members() == r.corona.members() == (0, 1, 2, 3)
    assert r.holds
    # a star's unique maximum independent set, its leaves, is kernel and corona alike
    r = kernel_corona(Graph.from_edges(6, [(0, i) for i in range(1, 6)]))
    assert r.alpha == 5
    assert r.kernel.members() == r.corona.members() == (1, 2, 3, 4, 5)


def test_complete_graph_kernel_empty():
    r = kernel_corona(Graph.complete(5))
    assert r.alpha == 1
    assert len(r.kernel) == 0 and len(r.corona) == 5
    assert r.holds  # 0 + 5 >= 2
    # 2 x K_3: nine maximum independent sets, one vertex from each triangle
    r = kernel_corona(Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))
    assert r.alpha == 2 and len(r.kernel) == 0 and len(r.corona) == 6


def test_shift_k2_kernel_and_corona():
    g, spec = build_shift_graph(2)
    r = kernel_corona(g)
    # the six S x T sets intersect in nothing and cover everything
    family = shift_mis_family(spec)
    expected_kernel = (1 << g.n) - 1
    expected_corona = 0
    for s in family.sets:
        expected_kernel &= s.bits
        expected_corona |= s.bits
    assert r.kernel.bits == expected_kernel == 0
    assert r.corona.bits == expected_corona == (1 << 12) - 1
    assert r.holds


def test_kernel_within_restriction():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    r = kernel_corona(g, within=VertexSet.from_members(4, [0, 1]))
    assert r.alpha == 1
    assert len(r.kernel) == 0
    assert r.corona.members() == (0, 1)


def test_hub_graph_kernel_and_corona_beyond_the_enumeration_cap():
    k = 20
    assert 2**k > DEFAULT_MIS_CAP
    r = kernel_corona(hub_graph(k))
    assert r.alpha == k + 1
    assert r.kernel.members() == (3 * k,)
    assert r.corona.members() == tuple(v for v in range(3 * k + 1) if v % 3 or v == 3 * k)
    assert len(r.corona) == 2 * k + 1


def test_kernel_and_corona_bound_every_mis():
    for g in seeded_graphs(25, seed=55, n_hi=11):
        r = kernel_corona(g)
        for s in enumerate_mis(g).sets:
            assert r.kernel.bits & ~s.bits == 0
            assert s.bits & ~r.corona.bits == 0


# --- corpora ----------------------------------------------------------------


def _graph_of_id(n, gid):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph.from_edges(n, [pairs[e] for e in range(len(pairs)) if gid >> e & 1])


def test_vectorised_stats_match_solver_on_samples():
    # every graph on n <= 5 vertices (1099 graphs), then a seeded sample at n = 7
    cases = [(n, gid) for n in range(1, 6) for gid in range(1 << n * (n - 1) // 2)]
    cases += [(7, int(gid)) for gid in np.random.default_rng(8).integers(0, 1 << 21, size=200)]
    stats = {n: all_graphs_kernel_stats(n) for n in (1, 2, 3, 4, 5, 7)}
    for n, gid in cases:
        g = _graph_of_id(n, gid)
        r = kernel_corona(g)
        masks = oracle_mis_masks(g)
        kernel = corona = masks[0]
        for m in masks:
            kernel &= m
            corona |= m
        got = tuple(int(stats[n][key][gid]) for key in ("alpha", "kernel_size", "corona_size"))
        assert got == (r.alpha, len(r.kernel), len(r.corona)), (n, gid)
        assert got == (masks[0].bit_count(), kernel.bit_count(), corona.bit_count()), (n, gid)


def test_exhaustive_corpus_small():
    check = exhaustive_corpus_check(5)
    assert check.checked == 1 + 2 + 8 + 64 + 1024
    assert check.ok
    assert [s["alpha"].shape[0] for s in check.stats] == [1, 2, 8, 64, 1024]


def test_exhaustive_rows_shape(monkeypatch):
    check = exhaustive_corpus_check(3)
    text = "".join(exhaustive_corpus_rows(check))
    monkeypatch.setattr(mishit.hajnal, "CSV_BLOCK_ROWS", 3)
    assert "".join(exhaustive_corpus_rows(check)) == text  # block edges split no line
    lines = text.split("\r\n")
    assert lines.pop() == ""
    assert len(lines) == 1 + 2 + 8
    assert lines[0] == "n1:mask0,1,1,1,1"
    gid, n, a, ker, cor = lines[-1].split(",")
    assert gid == "n3:mask7" and (n, a, ker, cor) == ("3", "1", "0", "3")
    assert all(int(line.split(",")[1]) == 3 for line in lines[3:])


def test_random_corpus_clean_and_deterministic():
    check1, rows1 = random_corpus_check(120, seed=99, n_max=11)
    check2, rows2 = random_corpus_check(120, seed=99, n_max=11, workers=2)
    assert check1.ok
    assert rows1 == rows2


def test_exhaustive_rejects_large_n():
    with pytest.raises(ValueError):
        all_graphs_kernel_stats(8)

"""Hitting-set solver, covering-code scan, and the bound constructions."""

from itertools import combinations

import numpy as np
import pytest

import mishit.graph
from conftest import run_fresh_python, vertex_set
from mishit.families import HammingSpec, build_hamming_graph, build_shift_graph, hamming_mis_family, shift_mis_family
from mishit.graph import FamilyTooLargeError, Graph, VertexSet
from mishit.hitting import (
    CoveringCode,
    InfeasibleFamilyError,
    RandomCodeOutcome,
    _least_transversal,
    build_hadamard_covering_code,
    build_random_covering_code,
    covering_radius,
    discrepancy_lower_bound,
    find_far_point,
    h_of_graph,
    hadamard_prefix_order,
    kneser_lower_bound,
    min_covering_code_search,
    min_hitting_set,
    sylvester_hadamard_rows,
    word_to_string,
    write_code,
)


# --- exact hitting sets ---------------------------------------------------


def _no_transversal_below(size, sets, n):
    """Exhaustive check that no vertex set of fewer than ``size`` vertices hits every set."""
    for smaller in range(1, size):
        for members in combinations(range(n), smaller):
            hb = sum(1 << v for v in members)
            assert any(s.bits & hb == 0 for s in sets)


def test_disjoint_singletons():
    family = [vertex_set(4, [1]), vertex_set(4, [2])]
    r = min_hitting_set(family)
    assert len(r) == 2 and r.members() == (1, 2)
    _no_transversal_below(len(r), family, 4)  # optimal


def test_common_element():
    r = min_hitting_set([vertex_set(4, [1, 2]), vertex_set(4, [2, 3])])
    assert len(r) == 1 and r.members() == (2,)


def test_lexicographically_least_optimum():
    # optima are {0,2}, {0,3}, {1,2}, {1,3}
    r = min_hitting_set([vertex_set(4, [0, 1]), vertex_set(4, [2, 3])])
    assert r.members() == (0, 2)


@pytest.mark.parametrize(
    "family, least",
    [
        ([[1, 2, 3], [2, 3]], (2,)),  # depth 1: 2 and 3 both close it
        ([[0, 1], [2, 3, 4], [3, 4, 5]], (0, 3)),  # depth 2: 3 and 4 after 0
        ([[0, 1], [2, 3], [4, 5, 6], [5, 6, 7]], (0, 2, 5)),  # depth 3: 5 and 6 after 0, 2
        ([[0, 2], [1], [2]], (1, 2)),  # after 0 no vertex lies in both {1} and {2}
    ],
)
def test_last_vertex_is_the_least_in_every_unhit_set(family, least):
    sets = [vertex_set(8, s) for s in family]
    r = min_hitting_set(sets)
    assert r.members() == least
    _no_transversal_below(len(r), sets, 8)


@pytest.mark.parametrize(
    "family, budget, least",
    [
        # v lies in every unhit set, so the search returns fewer vertices than the budget
        ([[1, 2], [1, 3]], 2, (1,)),
        ([[0], [1, 2], [1, 3]], 3, (0, 1)),
        # 0 fails; the sets that miss 1 share 2 and 3, and 1 takes the least,
        # though 0 lies in one of them and 3 would pop first in descending order
        ([[0, 2, 3], [1, 4], [2, 3]], 2, (1, 2)),
        ([[0], [1, 3, 4], [2, 5], [3, 4]], 3, (0, 2, 3)),
        # no pair works at budget 2, and budget 3 finds the set: after 0, only
        # the singleton {4} is left to AND once 2 is taken
        ([[0, 1], [2, 3], [4]], 2, None),
        ([[0, 1], [2, 3], [4]], 3, (0, 2, 4)),
    ],
    ids=["in-all-at-root", "in-all-after-0", "least-above-at-root", "least-above-after-0",
         "no-pair-at-2", "three-at-3"],
)
def test_last_two_vertices_are_settled_in_place(family, budget, least):
    # a frame with two vertices left runs its last-vertex children itself, in
    # ascending order, each by one AND of the sets that miss its vertex
    found = _least_transversal([vertex_set(8, s).bits for s in family], budget)
    assert (None if found is None else VertexSet(8, found).members()) == least


def test_per_set_witnesses():
    family = [vertex_set(5, [0, 1]), vertex_set(5, [1, 2]), vertex_set(5, [3, 4])]
    r = min_hitting_set(family)
    assert r.members() == (1, 3)
    for s in family:
        assert not s.isdisjoint(r)


def test_infeasible_on_empty_member():
    with pytest.raises(InfeasibleFamilyError):
        min_hitting_set([vertex_set(3, [0]), vertex_set(3, [])])
    with pytest.raises(ValueError):
        min_hitting_set([])


def test_transversal_deeper_than_the_starting_recursion_limit():
    # 1200 disjoint singletons force a 1200-vertex transversal, one vertex per
    # step; the search keeps its own stack, so it neither needs nor raises the
    # process-wide recursion limit, and it finds the forced set without
    # re-searching it slot by slot.  The limit starts at 100 in a fresh
    # interpreter, so a solver that recursed once per chosen vertex would
    # overflow it or have to raise it.
    script = (
        "import sys\n"
        "from mishit.graph import VertexSet\n"
        "from mishit.hitting import min_hitting_set\n"
        "sys.setrecursionlimit(100)\n"
        "r = min_hitting_set([VertexSet(1200, 1 << i) for i in range(1200)])\n"
        "print(len(r), r.bits == (1 << 1200) - 1, sys.getrecursionlimit())\n"
    )
    assert run_fresh_python(script) == "1200 True 100\n"


def test_universe_mismatch_rejected():
    with pytest.raises(ValueError):
        min_hitting_set([vertex_set(4, [0]), vertex_set(5, [1])])


@pytest.mark.parametrize("k,expected", [(1, 2), (2, 3), (3, 4)])
def test_shift_hitting_number(k, expected):
    _, spec = build_shift_graph(k)
    family = shift_mis_family(spec)
    r = min_hitting_set(family)
    assert len(r) == expected
    assert all(not s.isdisjoint(r) for s in family.sets)


def test_shift_k2_optimality_by_brute_force():
    _, spec = build_shift_graph(2)
    family = shift_mis_family(spec)
    r = min_hitting_set(family)
    # no smaller set hits everything (independent exhaustive check)
    _no_transversal_below(len(r), family.sets, spec.n)


def test_h_of_graph_basics():
    assert len(h_of_graph(Graph.empty(5))) == 1
    assert len(h_of_graph(Graph.complete(4))) == 4
    g2, _ = build_shift_graph(2)
    assert len(h_of_graph(g2)) == 3


def test_h_of_graph_cap_overflow(monkeypatch):
    monkeypatch.setattr(mishit.graph, "DEFAULT_MIS_CAP", 3)
    with pytest.raises(FamilyTooLargeError):
        h_of_graph(Graph.complete(5))


# --- covering codes ---------------------------------------------------------


def test_code_canonicalisation():
    code = CoveringCode(4, (7, 3, 7, 0), 1)
    assert code.words == (0, 3, 7)
    with pytest.raises(ValueError):
        CoveringCode(4, (16,), 1)
    with pytest.raises(ValueError):
        CoveringCode(4, (0,), 5)


def test_covering_radius_extremes():
    assert covering_radius(CoveringCode(6, (0,), 3))[0] == 6
    assert covering_radius(CoveringCode(6, (0, 63), 3))[0] == 3
    assert covering_radius(CoveringCode(4, tuple(range(16)), 1))[0] == 0
    with pytest.raises(ValueError):
        covering_radius(CoveringCode(30, (0,), 2))
    with pytest.raises(ValueError):
        find_far_point(CoveringCode(30, (0,), 14))


def test_min_code_search():
    assert len(min_covering_code_search(3, 1)) == 2
    code = min_covering_code_search(4, 1)
    assert len(code) == 4
    radius, _ = covering_radius(code)
    assert radius <= 1


def test_hitting_code_correspondence_4_1():
    spec = HammingSpec(4, 1)
    g = build_hamming_graph(spec)
    family = hamming_mis_family(spec)
    h = h_of_graph(g)
    code = CoveringCode(spec.m, h.members(), spec.ball_radius)
    radius, _ = covering_radius(code)
    assert radius <= spec.ball_radius
    assert vertex_set(spec.n, code.words).bits == h.bits
    # the two independent optimisation routes agree
    assert len(h) == len(min_covering_code_search(4, 1))
    # any set hits all balls iff its code has radius <= 1 (random sample)
    rng = np.random.default_rng(1)
    for _ in range(60):
        members = rng.choice(16, size=int(rng.integers(1, 9)), replace=False)
        s = vertex_set(16, (int(v) for v in members))
        hits_all = all(not b.isdisjoint(s) for b in family.sets)
        radius, _ = covering_radius(CoveringCode(spec.m, s.members(), spec.ball_radius))
        radius_ok = radius <= 1
        assert hits_all == radius_ok


def test_hamming_4_1_hitting_optimality_by_brute_force():
    spec = HammingSpec(4, 1)
    g = build_hamming_graph(spec)
    family = hamming_mis_family(spec)
    _no_transversal_below(len(h_of_graph(g)), family.sets, spec.n)


def test_far_point_single_codeword():
    code = CoveringCode(6, (0b010101,), 2)
    w = find_far_point(code)
    assert w is not None
    assert (w ^ 0b010101).bit_count() > 6 // 2 - 1


def test_far_point_none_when_covered():
    spec = HammingSpec(8, 1)
    code = build_hadamard_covering_code(spec)
    assert find_far_point(code) is None


def test_far_point_iff_radius_exceeds_target():
    rng = np.random.default_rng(2024)
    for _ in range(120):
        m = int(rng.choice([4, 6, 8]))
        t = 1 if m < 8 else int(rng.integers(1, 3))
        size = int(rng.integers(1, 9))
        words = tuple(int(w) for w in rng.integers(0, 1 << m, size=size))
        code = CoveringCode(m, words, max(m // 2 - t, 0))
        far = find_far_point(code)
        radius, scan_far = covering_radius(code)
        assert scan_far == far
        if radius <= m // 2 - t:
            assert far is None
        else:
            assert far is not None
            assert all(2 * ((far ^ c).bit_count()) > m - 2 * t for c in code.words)


# --- constructions ----------------------------------------------------------


def test_sylvester_rows():
    rows = sylvester_hadamard_rows(4)
    assert rows == [0b0000, 0b1010, 0b1100, 0b0110]
    with pytest.raises(ValueError):
        sylvester_hadamard_rows(3)


@pytest.mark.parametrize("order", [1 << e for e in range(11)])
def test_sylvester_rows_match_the_parity_definition(order):
    # bit j of row i is the parity of popcount(i & j)
    i = np.arange(order, dtype=np.uint32)
    parity = np.bitwise_count(i[:, None] & i[None, :]) & 1
    expected = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little") for row in parity]
    assert sylvester_hadamard_rows(order) == expected


def test_hadamard_prefix_order():
    assert hadamard_prefix_order(1) == 4
    assert hadamard_prefix_order(2) == 16
    assert hadamard_prefix_order(3) == 64
    for t in range(1, 65):
        h0 = hadamard_prefix_order(t)
        assert h0 & (h0 - 1) == 0 and h0 // 2 < 4 * t * t <= h0


@pytest.mark.parametrize("m", [8, 10, 12])
def test_hadamard_code_t1(m):
    spec = HammingSpec(m, 1)
    code = build_hadamard_covering_code(spec)
    assert len(code) == 16
    assert all(0 <= w < (1 << m) for w in code.words)
    radius, _ = covering_radius(code)
    assert radius <= m // 2 - 1


def test_hadamard_rejects_short_words():
    with pytest.raises(ValueError):
        build_hadamard_covering_code(HammingSpec(2, 1))


def test_random_code_4_1():
    spec = HammingSpec(4, 1)
    out = build_random_covering_code(spec, trials=100, rng_seed=7)
    assert isinstance(out, RandomCodeOutcome)
    assert out.radius is not None and out.code is not None
    radius, _ = covering_radius(out.code)
    assert radius <= 1
    again = build_random_covering_code(spec, trials=100, rng_seed=7)
    assert again.code.words == out.code.words
    assert again.trials_used == out.trials_used


def test_random_code_zero_trials_fails():
    out = build_random_covering_code(HammingSpec(4, 1), trials=0, rng_seed=1)
    assert out.code is None and out.radius is None


def test_random_code_rejects_long_prefix():
    with pytest.raises(ValueError):
        build_random_covering_code(HammingSpec(4, 2), trials=1, rng_seed=1)


# --- bound values -----------------------------------------------------------


def test_discrepancy_lower_bound_values():
    assert discrepancy_lower_bound(HammingSpec(2, 1)) == 1
    assert discrepancy_lower_bound(HammingSpec(12, 6)) == 1
    assert discrepancy_lower_bound(HammingSpec(24, 12)) == 4
    assert discrepancy_lower_bound(HammingSpec(120, 60)) == 100


def test_kneser_lower_bound_values():
    assert kneser_lower_bound(HammingSpec(4, 1)) == 2
    assert kneser_lower_bound(HammingSpec(16, 2)) == 4
    # at desk scale the Kneser bound can exceed the discrepancy one
    assert discrepancy_lower_bound(HammingSpec(576, 12)) == 4 < 24 == kneser_lower_bound(HammingSpec(576, 12))


@pytest.mark.parametrize("m,t", [(m, t) for t in (1, 2, 3) for m in range(2 * t, 38, 2) if 4 * t * t > m])
def test_builders_refuse_prefixes_longer_than_m(m, t):
    # the 4t^2 <= m constraint is the builders' own precondition; HammingSpec
    # itself accepts every t <= m/2
    spec = HammingSpec(m, t)
    with pytest.raises(ValueError):
        build_hadamard_covering_code(spec)
    with pytest.raises(ValueError):
        build_random_covering_code(spec, trials=1, rng_seed=0)


# --- files ------------------------------------------------------------------


def test_word_strings():
    assert word_to_string(0b0110, 4) == "0110"


def test_code_file_roundtrip(tmp_path):
    spec = HammingSpec(8, 1)
    code = build_hadamard_covering_code(spec)
    path = tmp_path / "code.txt"
    write_code(code, path)
    header, *lines = path.read_text().splitlines()
    assert header == "m=8 t=1"
    assert all(len(line) == 8 for line in lines)
    assert tuple(int(line[::-1], 2) for line in lines) == code.words

"""Randomised cross-checks of the solvers against direct subset scans."""

import json
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import mishit.hitting
from mishit.families import HammingSpec, build_shift_graph, hamming_mis_family, shift_mis_family
from mishit.graph import VertexSet, alpha, enumerate_mis, maximum_independent_set, random_graph
from mishit.hajnal import kernel_corona
from mishit.hitting import (
    CoveringCode,
    build_hadamard_covering_code,
    covering_radius,
    hadamard_prefix_order,
    min_hitting_set,
    sylvester_hadamard_rows,
)
from conftest import cycle_graph


def brute_min_hitting_sets(masks, n):
    """All minimum transversals, by scanning subsets in size order."""
    for size in range(0, n + 1):
        found = [
            combo
            for combo in combinations(range(n), size)
            if all(any(m >> v & 1 for v in combo) for m in masks)
        ]
        if found:
            return size, found
    raise AssertionError("unhittable family")


def random_families(seed, count):
    """``count`` seeded families (n, masks): n from 3 to 12, 1 to 12 nonempty sets."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, 13))
        masks = []
        for _ in range(int(rng.integers(1, 13))):
            members = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            masks.append(sum(1 << int(v) for v in members))
        yield n, masks


def test_hitting_solver_against_subset_scan():
    for n, masks in random_families(90210, 150):
        result = min_hitting_set([VertexSet(n, m) for m in masks])
        opt, all_optima = brute_min_hitting_sets(masks, n)
        assert len(result) == opt
        assert result.members() == min(all_optima)  # lexicographically least


def least_irredundant_transversal(masks, n, budget):
    """The least vertex tuple of at most ``budget`` members that hits every set,
    each member hitting a set the earlier ones missed, by scanning tuples."""
    for combo in sorted(c for size in range(budget + 1) for c in combinations(range(n), size)):
        hit = 0  # indices of the sets hit so far, as bits
        for v in combo:
            new = sum(1 << i for i, m in enumerate(masks) if m >> v & 1) & ~hit
            if not new:
                break
            hit |= new
        else:
            if hit == (1 << len(masks)) - 1:
                return combo
    return None


def families_needing_three(seed, count):
    """``count`` seeded families (n, masks) of optimum at least 3: n from 6 to
    10, 4 to 9 sets of 2 or 3 members."""
    rng = np.random.default_rng(seed)
    while count:
        n = int(rng.integers(6, 11))
        masks = [sum(1 << int(v) for v in rng.choice(n, size=int(rng.integers(2, 4)), replace=False))
                 for _ in range(int(rng.integers(4, 10)))]
        if brute_min_hitting_sets(masks, n)[0] >= 3:
            count -= 1
            yield n, masks


def test_least_transversal_at_every_budget_against_tuple_scan():
    # the search settles its last two vertices in place, each last one by
    # one AND instead of branching on it; below, at and above the optimum it
    # must return what branching over every tuple in increasing order finds
    # first; a search led by vertex 0 starts at budget 0, on a family that
    # may be empty; from optimum 3 on, the in-place level runs below pushed
    # frames
    for n, masks in [(4, []), *random_families(4242, 60), *families_needing_three(4343, 40)]:
        opt, _ = brute_min_hitting_sets(masks, n)
        for budget in (0, *range(max(opt - 1, 1), opt + 2)):
            found = mishit.hitting._least_transversal(masks, budget)
            members = None if found is None else tuple(v for v in range(n) if found >> v & 1)
            assert members == least_irredundant_transversal(masks, n, budget)


STRUCTURED = [("shift", 2), ("shift", 3), ("shift", 4), ("hamming", 6)]


def structured_family(kind, size):
    """The shift family for k = size, or the Hamming family for m = size, t = 1."""
    if kind == "shift":
        return shift_mis_family(build_shift_graph(size)[1]).sets
    return hamming_mis_family(HammingSpec(size, 1)).sets


def test_hitting_set_does_not_depend_on_family_order():
    # the packing bound looks at the sets in the order given; the optimum and
    # its lexicographically least representative must not
    # on the vertex-transitive structured families, neither must the search led by vertex 0
    rng = np.random.default_rng(1729)
    families = [(structured_family(*spec), True) for spec in STRUCTURED]
    families += [([VertexSet(n, m) for m in masks], False) for n, masks in random_families(31337, 100)]
    for sets, transitive in families:
        expected = min_hitting_set(sets)
        for _ in range(3):
            shuffled = [sets[i] for i in rng.permutation(len(sets))]
            assert min_hitting_set(shuffled) == expected
            if transitive:
                assert min_hitting_set(shuffled, transitive=True) == expected


def milp_min_transversal_size(masks, n):
    """The least transversal size as a 0/1 integer program solved by HiGHS."""
    optimize = pytest.importorskip("scipy.optimize")
    incidence = np.array([[m >> v & 1 for v in range(n)] for m in masks])
    res = optimize.milp(np.ones(n), integrality=np.ones(n), bounds=optimize.Bounds(0, 1),
                        constraints=optimize.LinearConstraint(incidence, lb=1))
    assert res.success, res.message
    return round(res.fun)


@pytest.mark.parametrize("kind,size", STRUCTURED)
def test_hitting_number_against_milp_on_structured_families(kind, size):
    sets = structured_family(kind, size)
    assert len(min_hitting_set(sets)) == milp_min_transversal_size([s.bits for s in sets], sets[0].n)


@pytest.mark.parametrize("argv, key, family", [
    (("shift", "--k", "5"), "h", lambda: shift_mis_family(build_shift_graph(5)[1]).sets),
    (("hamming", "--m", "6", "--t", "2"), "h_exact", lambda: hamming_mis_family(HammingSpec(6, 2)).sets),
], ids=["shift-5", "hamming-6-2"])
def test_frontier_hitting_numbers_against_milp(cli_json, argv, key, family):
    # the CLI's own run, shared with the tests that pin its JSON: HiGHS proves the h it printed
    # (6 and 12); kept out of STRUCTURED, whose order test also runs the search not led by vertex 0
    h = json.loads(cli_json(*argv)[1])["report"][key]
    sets = family()
    assert h == milp_min_transversal_size([s.bits for s in sets], sets[0].n)


def test_hitting_number_against_milp_on_random_families():
    for n, masks in random_families(31337, 100):
        assert len(min_hitting_set([VertexSet(n, m) for m in masks])) == milp_min_transversal_size(masks, n)


def brute_scan(words, m, target):
    """(covering radius, least word farther than ``target`` from every codeword), word by word."""
    dist = [min((w ^ c).bit_count() for c in words) for w in range(1 << m)]
    return max(dist), next((w for w, x in enumerate(dist) if x > target), None)


def test_covering_radius_against_pure_python():
    rng = np.random.default_rng(4242)
    for _ in range(40):
        m = int(rng.choice([3, 4, 5, 6, 7, 8]))
        size = int(rng.integers(1, 7))
        words = tuple(int(w) for w in rng.integers(0, 1 << m, size=size))
        code = CoveringCode(m, words, m // 2)
        radius, _ = covering_radius(code)
        assert radius == brute_scan(code.words, m, m)[0]


def assert_scan_matches_brute_force(code, radius=None):
    """Compare ``covering_radius`` with the word-by-word scan."""
    expected = brute_scan(code.words, code.m, code.target_radius)
    if radius is not None:
        assert expected[0] == radius
    assert covering_radius(code) == expected, code


def test_covering_radius_and_far_point_on_seeded_codes():
    rng = np.random.default_rng(7170)
    for m in range(1, 15):
        for _ in range(4):
            size = int(rng.integers(1, 10))
            words = tuple(int(w) for w in rng.integers(0, 1 << m, size=size))
            code = CoveringCode(m, words, int(rng.integers(0, m + 1)))
            assert_scan_matches_brute_force(code)


def test_covering_radius_and_far_point_on_structured_codes():
    rng = np.random.default_rng(606)
    for m in range(1, 13):
        full = (1 << m) - 1
        for target in {0, m // 2, m - 1}:
            w = int(rng.integers(0, 1 << m))
            cases = [((w,), m), ((w, w ^ full), m // 2)]  # (code words, covering radius)
            if m <= 8:  # the brute force is quadratic in the space here
                cases.append((tuple(range(1 << m)), 0))
            for words, radius in cases:
                assert_scan_matches_brute_force(CoveringCode(m, words, target), radius)


def suffixed(m, p, prefixes):
    """Each p-bit prefix completed by the all-zeros and the all-ones m - p bits."""
    ones = ((1 << m - p) - 1) << p
    return tuple(w for x in prefixes for w in (x, x | ones))


def assert_matches_whole_code_scan(m, words):
    """``covering_radius`` against every word's distance to the whole code, by
    one numpy pass per codeword, at every target 0..m."""
    space = np.arange(1 << m, dtype=np.uint32)
    dist = np.full(1 << m, m, dtype=np.uint8)
    for c in words:
        np.minimum(dist, np.bitwise_count(space ^ np.uint32(c)), out=dist)
    for target in range(m + 1):
        far = np.flatnonzero(dist > target)
        expected = int(dist.max()), int(far[0]) if far.size else None
        assert covering_radius(CoveringCode(m, words, target)) == expected, (m, words, target)


@pytest.mark.parametrize("t,m", [(1, 4), (1, 9), (1, 16), (1, 22), (2, 16), (2, 19), (2, 22)])
def test_covering_radius_of_suffixed_codes_at_every_target(t, m):
    # the Hadamard prefixes and seeded prefix sets of 1, 3, 8 and 16t^2 words;
    # odd m gives an odd repetition suffix
    rng = np.random.default_rng(100 * t + m)
    p = 4 * t * t
    h0 = hadamard_prefix_order(t)
    if h0 <= m:
        rows = sylvester_hadamard_rows(h0)
        assert_matches_whole_code_scan(m, suffixed(m, h0, rows + [r ^ (1 << h0) - 1 for r in rows]))
    for count in (1, 3, 8, 16 * t * t):
        if m <= 19 or count > 8:  # keep the whole-code passes at m = 22 few
            assert_matches_whole_code_scan(m, suffixed(m, p, [int(x) for x in rng.integers(0, 1 << p, size=count)]))


def test_covering_radius_of_odd_and_extreme_suffixes():
    # every suffix length L from 0 to m, odd ones included: the CLI's codes all
    # have even L, so only these tell floor(L/2) from ceil(L/2)
    rng = np.random.default_rng(2718)
    for m in range(1, 12):
        for length in range(m + 1):
            p = m - length
            for count in (1, 3):
                assert_matches_whole_code_scan(m, suffixed(m, p, [int(x) for x in rng.integers(0, 1 << p, size=count)]))
    for m in (1, 2, 7, 14):  # L = m: {0^m, 1^m}, an empty prefix
        assert_matches_whole_code_scan(m, (0, (1 << m) - 1))
    for m in (5, 14):  # L = 0: a top bit set in some words and clear in others, no flip partner
        words = (1 << m - 1, 3, 1 << m - 2 | 5)
        assert_matches_whole_code_scan(m, words)


def test_covering_radius_scans_the_prefix_in_bounded_memory():
    # m = 4096 is legal for the spec; only the 16-bit prefix is held as an array
    code = build_hadamard_covering_code(HammingSpec(4096, 2))
    tracemalloc.start()
    try:
        radius, far = covering_radius(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (radius, far) == (2046, None)
    assert peak < 256 << 10  # a 2^16-byte distance array and its half-size scratch, not 2^4096 words


def test_cycle_alpha_known_values():
    for n in range(3, 13):
        assert alpha(cycle_graph(n)) == n // 2


def test_petersen_alpha():
    # outer 5-cycle, inner pentagram, spokes
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    from mishit.graph import Graph

    assert alpha(Graph.from_edges(10, edges)) == 4


def test_clique_search_against_networkx_on_graphs_beyond_brute_force():
    # the maximum independent sets of G are the largest maximal cliques of its
    # complement, which networkx lists by Bron-Kerbosch, a different search
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(6174)
    checked = 0
    while checked < 12:
        n = int(rng.integers(25, 46))
        g = random_graph(n, float(rng.uniform(0.12, 0.4)), rng)
        ng = nx.Graph(g.edges())
        ng.add_nodes_from(range(n))
        if not nx.is_connected(ng):
            continue
        cliques = [sum(1 << v for v in c) for c in nx.find_cliques(nx.complement(ng))]
        a = max(c.bit_count() for c in cliques)
        maximum = sorted(c for c in cliques if c.bit_count() == a)
        assert alpha(g) == a
        assert maximum_independent_set(g).bits in maximum
        family = enumerate_mis(g)
        assert sorted(s.bits for s in family.sets) == maximum
        kernel, corona = (1 << n) - 1, 0
        for c in maximum:
            kernel &= c
            corona |= c
        report = kernel_corona(g)
        assert (report.alpha, report.kernel.bits, report.corona.bits) == (a, kernel, corona)
        checked += 1

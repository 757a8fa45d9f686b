"""The roots that size h: the family symmetries behind them, and h unchanged by them.

The generators here are written out independently of ``mishit.families``:
each is checked to map its family onto itself, so the group they generate
acts on the family, and the roots the builders list are checked against
that group's orbits.
"""

import pytest

from conftest import vertex_set
from mishit.families import (
    HAMMING_ROOTS,
    SHIFT_STABILISER_REPS,
    HammingSpec,
    ShiftSpec,
    hamming_mis_family,
    shift_mis_family,
    shift_roots,
)
from mishit.graph import Graph, enumerate_mis
from mishit.hitting import min_hitting_set


def _shift_perm(spec, arc_map):
    """The vertex permutation of the shift graph induced by a map on arcs."""
    return tuple(spec.pair_to_index(*arc_map(*spec.index_to_pair(v))) for v in range(spec.n))


def _ground_perm(spec, point_map):
    return _shift_perm(spec, lambda i, j: (point_map(i), point_map(j)))


def _swap(a, b):
    return lambda x: b if x == a else a if x == b else x


def shift_generators(spec):
    """S_2k on the ground set (a transposition and a 2k-cycle) and the reversal."""
    K = spec.ground_size
    return [
        _ground_perm(spec, _swap(1, 2)),
        _ground_perm(spec, lambda x: x % K + 1),
        _shift_perm(spec, lambda i, j: (j, i)),
    ]


def shift_stabiliser_generators(spec):
    """Generators fixing the arc (1, 2): S_{2k-2} on {3..2k}, and the
    reversal composed with the swap of 1 and 2."""
    K = spec.ground_size
    swap12 = _swap(1, 2)
    return [
        _ground_perm(spec, _swap(3, 4)),
        _ground_perm(spec, lambda x: x if x < 3 else (x - 2) % (K - 2) + 3),
        _shift_perm(spec, lambda i, j: (swap12(j), swap12(i))),
    ]


def hamming_generators(spec):
    """The translations by the unit words."""
    return [tuple(w ^ 1 << i for w in range(spec.n)) for i in range(spec.m)]


def _image(perm, bits):
    out = 0
    for v in range(len(perm)):
        if bits >> v & 1:
            out |= 1 << perm[v]
    return out


def _orbits(perms, points):
    """The orbits of the group generated by ``perms`` on ``points``."""
    left = set(points)
    orbits = []
    while left:
        frontier = [min(left)]
        orbit = set(frontier)
        while frontier:
            v = frontier.pop()
            for perm in perms:
                if perm[v] not in orbit:
                    orbit.add(perm[v])
                    frontier.append(perm[v])
        orbits.append(frozenset(orbit))
        left -= orbit
    return orbits


def _one_rep_per_orbit(perms, n, reps):
    """True iff each orbit of ``perms`` on the vertices other than 0 holds exactly one of ``reps``."""
    return all(len(orbit & set(reps)) == 1 for orbit in _orbits(perms, range(1, n)))


FAMILIES = {
    **{f"shift-{k}": (ShiftSpec(k), shift_mis_family, shift_generators) for k in range(1, 6)},
    **{f"hamming-{m}-{t}": (HammingSpec(m, t), hamming_mis_family, hamming_generators)
       for m in (2, 4, 6) for t in range(1, m // 2 + 1)},
}


@pytest.mark.parametrize("name", FAMILIES)
def test_each_generator_maps_the_family_onto_itself_and_moves_vertex_0_everywhere(name):
    spec, build, generators = FAMILIES[name]
    family = {s.bits for s in build(spec).sets}
    perms = generators(spec)
    for perm in perms:
        assert sorted(perm) == list(range(spec.n))
        assert {_image(perm, bits) for bits in family} == family
    assert _orbits(perms, range(spec.n)) == [frozenset(range(spec.n))]


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_shift_stabiliser_orbits_are_the_listed_reps(k):
    spec = ShiftSpec(k)
    family = {s.bits for s in shift_mis_family(spec).sets}
    stabiliser = shift_stabiliser_generators(spec)
    for perm in stabiliser:
        assert perm[0] == 0
        assert {_image(perm, bits) for bits in family} == family
    reps = [spec.pair_to_index(*arc) for arc in SHIFT_STABILISER_REPS]
    assert _one_rep_per_orbit(stabiliser, spec.n, reps)
    assert not _one_rep_per_orbit(stabiliser, spec.n, reps[:-1])  # (3, 4) left out
    assert shift_roots(spec) == tuple(1 | 1 << v for v in reps)


def test_shift_roots_at_k1_pair_the_two_arcs():
    assert shift_roots(ShiftSpec(1)) == (0b11,)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_shift_sizing_with_roots_gives_the_same_set(k):
    spec = ShiftSpec(k)
    family = shift_mis_family(spec)
    with_roots = min_hitting_set(family, shift_roots(spec))
    assert with_roots == min_hitting_set(family)
    assert len(with_roots) == k + 1


# The least 12-word code of radius 1 in Z_2^6, as min_hitting_set found it
# with no roots (budgets 1 to 12).  That search takes longer than the rest of
# the suite's exact-h tests together, so its answer is pinned here.
HAMMING_6_2_LEAST = (0, 1, 2, 15, 23, 28, 39, 44, 52, 57, 58, 59)


@pytest.mark.parametrize("m, t", [(m, t) for m in (2, 4, 6) for t in range(1, m // 2 + 1)])
def test_hamming_sizing_with_roots_gives_the_same_set(m, t):
    family = hamming_mis_family(HammingSpec(m, t))
    with_roots = min_hitting_set(family, HAMMING_ROOTS)
    if (m, t) == (6, 2):
        assert with_roots.members() == HAMMING_6_2_LEAST
    else:
        assert with_roots == min_hitting_set(family)


@pytest.mark.parametrize("family, least", [
    # the edgeless graph's one maximum set is every vertex, and S_4 is transitive
    (enumerate_mis(Graph.empty(4)).sets, (0,)),
    # a root says nothing when h = 1, so the search at budget 1 must not use it
    ([vertex_set(4, [1, 2]), vertex_set(4, [2, 3])], (2,)),
], ids=["transitive", "intransitive"])
def test_family_with_h_1_sizes_to_1(family, least):
    # the pair {0, 1} is a valid root of either family: some minimum transversal holds it once h >= 2
    assert min_hitting_set(family, (0b11,)).members() == least

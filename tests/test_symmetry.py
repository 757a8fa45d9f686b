"""Vertex 0 leads the search on the shift and Hamming families, and h is unchanged by it.

The generators here are written out independently of ``mishit.families``:
each is checked to map its graph and its family onto itself, and together
they move vertex 0 to every vertex.  So some minimum transversal of the
family holds vertex 0, which is what ``min_hitting_set(..., transitive=True)``
assumes.  The package's own generators, which ``shift`` and ``hamming`` hand
to ``enumerate_mis``, are checked against the same conditions and these.
"""

import pytest

from conftest import vertex_set
from mishit.families import (
    HammingSpec,
    ShiftSpec,
    build_hamming_graph,
    build_shift_graph,
    hamming_generators as package_hamming_generators,
    hamming_mis_family,
    shift_generators as package_shift_generators,
    shift_mis_family,
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


FAMILIES = {
    **{f"shift-{k}": (ShiftSpec(k), shift_mis_family, shift_generators, lambda spec: build_shift_graph(spec.k)[0])
       for k in range(1, 6)},
    **{f"hamming-{m}-{t}": (HammingSpec(m, t), hamming_mis_family, hamming_generators, build_hamming_graph)
       for m in (2, 4, 6) for t in range(1, m // 2 + 1)},
}


@pytest.mark.parametrize("name", FAMILIES)
def test_each_generator_maps_the_family_onto_itself_and_moves_vertex_0_everywhere(name):
    spec, build, generators, _ = FAMILIES[name]
    family = {s.bits for s in build(spec).sets}
    perms = generators(spec)
    for perm in perms:
        assert sorted(perm) == list(range(spec.n))
        assert {_image(perm, bits) for bits in family} == family
    assert _orbits(perms, range(spec.n)) == [frozenset(range(spec.n))]


@pytest.mark.parametrize("name", FAMILIES)
def test_each_generator_is_an_automorphism_of_the_graph(name):
    # so vertex 0 leads the search on the graph's enumerated family, whatever it is
    spec, _, generators, build_graph = FAMILIES[name]
    rows = build_graph(spec).adj
    for perm in generators(spec):
        assert all(_image(perm, rows[v]) == rows[perm[v]] for v in range(spec.n))


PACKAGE_GENERATORS = {ShiftSpec: package_shift_generators, HammingSpec: package_hamming_generators}


@pytest.mark.parametrize("name", FAMILIES)
def test_package_generators_map_graph_and_family_onto_themselves_with_the_same_orbit(name):
    spec, build, generators, build_graph = FAMILIES[name]
    perms = PACKAGE_GENERATORS[type(spec)](spec)
    rows = build_graph(spec).adj
    family = {s.bits for s in build(spec).sets}
    for perm in perms:
        assert sorted(perm) == list(range(spec.n))
        assert all(_image(perm, rows[v]) == rows[perm[v]] for v in range(spec.n))
        assert {_image(perm, bits) for bits in family} == family

    def orbit_of_0(gens):
        return next(orbit for orbit in _orbits(gens, range(spec.n)) if 0 in orbit)

    assert orbit_of_0(perms) == orbit_of_0(generators(spec))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_shift_sizing_with_roots_gives_the_same_set(k):
    spec = ShiftSpec(k)
    family = shift_mis_family(spec)
    flagged = min_hitting_set(family, transitive=True)
    assert flagged == min_hitting_set(family)
    assert len(flagged) == k + 1


# The least 12-word code of radius 1 in Z_2^6, as min_hitting_set found it
# without the flag (budgets 1 to 12).  That search takes longer than the rest of
# the suite's exact-h tests together, so its answer is pinned here.
HAMMING_6_2_LEAST = (0, 1, 2, 15, 23, 28, 39, 44, 52, 57, 58, 59)


@pytest.mark.parametrize("m, t", [(m, t) for m in (2, 4, 6) for t in range(1, m // 2 + 1)])
def test_hamming_sizing_with_roots_gives_the_same_set(cli_json, m, t):
    if (m, t) == (6, 2):
        # the CLI's flagged search, one run shared with the tests that pin its JSON
        code, _, [(flagged, kwargs)] = cli_json("hamming", "--m", "6", "--t", "2")
        assert code == 0 and kwargs == {"transitive": True}
        assert flagged.members() == HAMMING_6_2_LEAST
    else:
        family = hamming_mis_family(HammingSpec(m, t))
        assert min_hitting_set(family, transitive=True) == min_hitting_set(family)


@pytest.mark.parametrize("family, least", [
    # the edgeless graph's one maximum set is every vertex, and S_4 is transitive
    (enumerate_mis(Graph.empty(4)).sets, (0,)),
], ids=["transitive"])
def test_family_with_h_1_sizes_to_1(family, least):
    assert min_hitting_set(family, transitive=True).members() == least


def test_flag_on_a_family_whose_minimum_transversals_miss_vertex_0():
    # {2} is the only minimum transversal; leading with vertex 0 costs one vertex more
    family = [vertex_set(4, [1, 2]), vertex_set(4, [2, 3])]
    assert min_hitting_set(family, transitive=True).members() == (0, 2)
    assert min_hitting_set(family).members() == (2,)

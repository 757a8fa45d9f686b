"""Bitmask graph core: exact independence numbers and maximum-independent-set
enumeration.

A graph is stored as one Python-int adjacency row per vertex, so neighbourhood
algebra (independence tests, candidate pruning, kernel intersections) is plain
integer bit twiddling.  One clique search on the complement answers every
question: a branch and bound with greedy-colouring upper bounds that yields
each leaf clique reaching a floor the caller may raise.  It reads G's own
rows: a colour class of the complement is a clique of G, grown along G's
edges, and v's complement neighbours are the vertices off v's row.  Each
class is one bitmask and the bound is the number of classes left, so a
branch step is a few integer operations.  alpha(G) raises the floor past
each clique found; enumeration holds it at the largest size found so far, so
one search finds alpha and visits every maximum independent set exactly
once; a yes/no question takes the first clique at its floor, if any.  The
search walks its own stack: nothing in the package recurses or touches the
interpreter's recursion limit.

Vertex order inside the solver is descending complement-degree (ascending
degree in G) with ties by index, which makes both the witness and the
enumeration order reproducible.

A disjoint union is solved part by part: ``_components`` splits a vertex mask
into its connected components, alpha is the sum of the component alphas and
the witness the union of the component witnesses, so many disjoint copies of
a graph cost the copy count times one copy rather than a product.  The
kernel (intersection of all maximum independent sets) and corona (their
union) are unions of the component kernels and coronas, each found by at
most one further decision search per vertex, never by enumeration.  The MIS
family of a union is the product of the component families, so enumeration
lists each component's sets once and ORs one from each; a family of more
than ``DEFAULT_MIS_CAP`` sets is refused before the product is built.  Given
automorphisms that move vertex 0 to every vertex, enumeration lists only the
sets through vertex 0 and closes them under the automorphisms.

Small graphs also have a subset table, alpha of every induced subgraph,
filled by doubling once per vertex and run over a batch of graphs on the
same vertex count in one numpy pass (``_subset_alpha_tables``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, compress
from typing import Iterable, Iterator, Sequence

import numpy as np

MAX_VERTICES = 4096
DEFAULT_MIS_CAP = 10**6  # most sets enumerate_mis will list; guards memory against input graphs
EXACT_MAX_N = 20  # largest subset table: 2^20 cells, the most its callers hold at once


class FamilyTooLargeError(RuntimeError):
    """The maximum-independent-set family has more than ``DEFAULT_MIS_CAP`` members."""


@dataclass(frozen=True)
class VertexSet:
    """Subset of {0..n-1} held as a bitmask over an n-vertex universe."""

    n: int
    bits: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"negative universe size {self.n}")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError(f"bits {self.bits:#x} not confined to 0..{self.n - 1}")

    def members(self) -> tuple[int, ...]:
        return tuple(_iter_bits(self.bits))

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        return _iter_bits(self.bits)

    def _check_universe(self, other: VertexSet) -> None:
        if self.n != other.n:
            raise ValueError(f"mismatched universes ({self.n} vs {other.n})")

    def isdisjoint(self, other: VertexSet) -> bool:
        self._check_universe(other)
        return not self.bits & other.bits


@dataclass(frozen=True)
class MisFamily:
    """A family of maximum independent sets, all of size ``alpha``.

    Enumeration and the structural builders return every maximum independent
    set of the source graph, never a part of them.
    """

    alpha: int
    sets: tuple[VertexSet, ...]

    def __post_init__(self):
        seen = set()
        for s in self.sets:
            if len(s) != self.alpha:
                raise ValueError(f"member of size {len(s)} in family with alpha={self.alpha}")
            if s.bits in seen:
                raise ValueError("duplicate member in family")
            seen.add(s.bits)

    def __len__(self) -> int:
        return len(self.sets)


class Graph:
    """Immutable undirected graph on vertices 0..n-1 with bitmask rows.

    The constructor trusts its rows to be in range, loop-free and symmetric,
    as every builder in the package makes them; outside data must come
    through ``from_edges``, which checks each edge.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Iterable[int]):
        self.n = n
        self.adj = tuple(adj)
        if n < 0:
            raise ValueError("negative vertex count")
        if n > MAX_VERTICES:
            raise ValueError(f"n={n} exceeds the {MAX_VERTICES}-vertex bitmask cap")
        if len(self.adj) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(self.adj)}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        if n > MAX_VERTICES:  # before allocating n rows for a count read from a file
            raise ValueError(f"n={n} exceeds the {MAX_VERTICES}-vertex bitmask cap")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    @classmethod
    def empty(cls, n: int) -> Graph:
        return cls(n, [0] * n)

    @classmethod
    def complete(cls, n: int) -> Graph:
        full = (1 << n) - 1
        return cls(n, [full & ~(1 << v) for v in range(n)])

    def num_edges(self) -> int:
        return sum(r.bit_count() for r in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in _iter_bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges()})"

    def __reduce__(self):
        return (Graph, (self.n, self.adj))


def _iter_bits(bits: int) -> Iterator[int]:
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


# ---------------------------------------------------------------------------
# exact solver: maximum clique on the complement
# ---------------------------------------------------------------------------


def _relabel(rows: tuple[int, ...], start: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Restrict G's ``rows`` to ``start`` and relabel by ascending degree
    (descending complement-degree), ties by index.

    Returns (relabelled rows, new-index -> old-vertex map).  The fixed order
    makes witnesses and enumeration order reproducible and keeps the greedy
    colouring tight on irregular graphs.
    """
    verts = sorted(_iter_bits(start), key=lambda v: ((rows[v] & start).bit_count(), v))
    pos = {v: i for i, v in enumerate(verts)}
    out = []
    for v in verts:
        row = 0
        for u in _iter_bits(rows[v] & start):
            row |= 1 << pos[u]
        out.append(row)
    return tuple(out), tuple(verts)


def _map_back(mask: int, verts: tuple[int, ...]) -> int:
    out = 0
    for i in _iter_bits(mask):
        out |= 1 << verts[i]
    return out


def _colour_classes(P: int, rows: tuple[int, ...]) -> list[int]:
    """Greedy-colour the candidate mask ``P`` in the complement of G's ``rows``.

    Returns one mask per colour class, in colour order: each class takes the
    lowest uncoloured vertex, then each later one G joins to all already in
    it.  The number of classes bounds the largest complement clique inside P.
    """
    classes = []
    rest = P
    while rest:
        cls = 0
        q = rest
        while q:
            bit = q & -q
            cls |= bit
            q &= rows[bit.bit_length() - 1]
        rest ^= cls
        classes.append(cls)
    return classes


def _cliques(rows: tuple[int, ...], start: int, floor: list[int]) -> Iterator[int]:
    """Yield each leaf clique mask of the complement of G's ``rows`` within
    ``start`` of at least ``floor[0]`` vertices: each an independent set of G.

    The colouring-bounded branch and bound of Tomita & Seki (MCQ, 2003): a
    branch is cut once its colour bound falls below the floor, so no branch
    holding a clique of the floor's size is cut.  ``floor`` is a one-element
    list read at every cut, so the caller may raise it between yields.  Held
    at or below the clique number of the restriction, as when it follows the
    largest clique yielded so far, it makes the search yield every maximum
    clique exactly once; ``next`` at any floor asks whether a clique of that
    size exists.  An explicit stack holds one frame per clique member, so no
    depth of search touches the interpreter's recursion limit.
    Each frame branches on the highest vertex of its last colour class and
    drops a class once it is empty, so the classes left bound the clique.
    """
    if not start and floor[0] <= 0:
        yield 0
    # frame: [clique mask, candidates left, their non-empty colour classes]
    stack = [[0, start, _colour_classes(start, rows)]]
    while stack:
        clique, cands, classes = frame = stack[-1]
        if not classes or len(stack) - 1 + len(classes) < floor[0]:  # clique size + colour bound
            stack.pop()
            continue
        last = classes[-1]
        v = last.bit_length() - 1
        bit = 1 << v
        if last == bit:
            classes.pop()
        else:
            classes[-1] = last ^ bit
        frame[1] = cands = cands ^ bit  # v's branch covers every clique through v
        P = cands & ~rows[v]
        if P:
            stack.append([clique | bit, P, _colour_classes(P, rows)])
        elif len(stack) >= floor[0]:  # the leaf clique has len(stack) members
            yield clique | bit


def _max_clique(rows: tuple[int, ...], start: int) -> tuple[int, int]:
    """Largest clique (size, mask) of the graph ``rows`` restricted to ``start``."""
    floor = [1]
    best = 0
    for best in _cliques(rows, start, floor):
        floor[0] = best.bit_count() + 1  # only a larger clique is worth finding
    return floor[0] - 1, best


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def is_independent(g: Graph, s: VertexSet) -> bool:
    """True iff no edge of ``g`` has both endpoints in ``s``."""
    if s.n != g.n:
        raise ValueError(f"vertex set over {s.n} vertices against graph on {g.n}")
    bits = s.bits
    for v in _iter_bits(bits):
        if g.adj[v] & bits:
            return False
    return True


def _components(g: Graph, within_bits: int) -> list[int]:
    """Vertex masks of the connected components of ``g`` restricted to
    ``within_bits``, ordered by lowest vertex; grown breadth-first over the
    adjacency rows."""
    comps = []
    rest = within_bits
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            reach = 0
            for v in _iter_bits(frontier):
                reach |= g.adj[v]
            frontier = reach & rest & ~comp
            comp |= frontier
        rest ^= comp
        comps.append(comp)
    return comps


def _component_rows(g: Graph, within_bits: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Per connected component of the restriction: (G's rows restricted to it
    and relabelled, new-index -> old-vertex map)."""
    return [_relabel(g.adj, comp) for comp in _components(g, within_bits)]


def _component_solves(
    g: Graph, within_bits: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int, int]]:
    """Per connected component of the restriction: (G's rows restricted to it
    and relabelled, new-index -> old-vertex map, alpha, relabelled witness mask).

    The alpha solve is what the witness and kernel/corona questions start
    from; ``enumerate_mis`` needs none, as its listing search finds alpha.
    """
    for rows, verts in _component_rows(g, within_bits):
        size, mask = _max_clique(rows, (1 << len(verts)) - 1)
        yield rows, verts, size, mask


def _solve_witness(g: Graph, within_bits: int) -> tuple[int, int]:
    """(alpha, witness mask in original labels) for the induced restriction,
    solved one connected component at a time."""
    size = witness = 0
    for _, verts, comp_size, mask in _component_solves(g, within_bits):
        size += comp_size
        witness |= _map_back(mask, verts)
    return size, witness


def _solve_kernel_corona(g: Graph, within_bits: int) -> tuple[int, int, int]:
    """(alpha, kernel mask, corona mask) of the restriction, in original labels.

    Per component, the witness W starts both the kernel candidates K and the
    found corona R, and every maximum independent set met on the way is
    intersected into K and united into R.  Each vertex v is then settled by
    at most one decision search, which stops at its first hit: while v is in
    K, a clique of size alpha avoiding v is such a set, and its absence puts
    v in the kernel; while v is outside R, a clique of size alpha - 1 among
    the complement neighbours of v plus v is such a set, and its absence puts
    v outside the corona.
    """
    size = kernel = corona = 0
    for rows, verts, comp_size, witness in _component_solves(g, within_bits):
        full = (1 << len(verts)) - 1
        ker = cor = witness
        for v in range(len(verts)):
            bit = 1 << v
            if ker & bit:
                found = next(_cliques(rows, full & ~bit, [comp_size]), None)
            elif not cor & bit:
                cliques = _cliques(rows, full & ~(rows[v] | bit), [comp_size - 1])
                found = next((mask | bit for mask in cliques), None)
            else:
                continue
            if found is not None:
                ker &= found
                cor |= found
        size += comp_size
        kernel |= _map_back(ker, verts)
        corona |= _map_back(cor, verts)
    return size, kernel, corona


def _subset_alpha_tables(adj: np.ndarray) -> np.ndarray:
    """alpha(G[W]) for every subset W of every graph in a batch.

    ``adj`` is a (B, n) int64 array, row b the adjacency rows of graph b;
    the result is a (B, 2^n) uint8 array, row b indexed by W's bits.  The
    tables double once per vertex k: a set W with highest vertex k has
    alpha(W) = max(alpha(W - k), 1 + alpha(W - N[k])), and both sets lie
    among the 2^k already filled, so each doubling is one gather through
    flat indices into the whole batch.
    """
    batch, n = adj.shape
    tables = np.zeros((batch, 1 << n), dtype=np.uint8)
    flat = tables.reshape(-1)
    # the sets W - k as flat indices: graph b's row base b << n plus W's bits.
    # The base's bits lie above n, where ~adj[b, k] has every bit set, so
    # masking with ~adj[b, k] clears N[k] from W and keeps the base.
    low = (np.arange(batch, dtype=np.int64)[:, None] << n) + np.arange(1 << n >> 1, dtype=np.int64)
    keep = ~adj
    for k in range(n):
        gathered = flat[low[:, : 1 << k] & keep[:, k, None]]
        np.maximum(tables[:, : 1 << k], 1 + gathered, out=tables[:, 1 << k : 2 << k])
    return tables


def maximum_independent_set(g: Graph) -> VertexSet:
    """One maximum independent set of ``g`` (deterministic witness)."""
    _, mask = _solve_witness(g, (1 << g.n) - 1)
    return VertexSet(g.n, mask)


def alpha(g: Graph) -> int:
    """Exact independence number of ``g``."""
    size, _ = _solve_witness(g, (1 << g.n) - 1)
    return size


def alpha_induced(g: Graph, within: VertexSet | int) -> int:
    """Exact independence number of the subgraph induced on ``within``."""
    bits = within.bits if isinstance(within, VertexSet) else within
    if bits >> g.n:
        raise ValueError("induced set has vertices outside the graph")
    size, _ = _solve_witness(g, bits)
    return size


def _image(mask: int, bits: list[int]) -> int:
    """The image of ``mask`` under the permutation whose image bits are ``bits``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= bits[low.bit_length() - 1]
        mask ^= low
    return out


def _verified_automorphisms(g: Graph, generators) -> list[list[int]]:
    """Each generator as the image bits ``1 << perm[v]`` of its vertices,
    after checking that it is a permutation of 0..n-1 that maps every
    adjacency row onto the row of its image, and that together they move
    vertex 0 to every vertex.  A row over half full is checked by its
    non-neighbours instead, the fewer bits to map.  Raises ValueError."""
    n = g.n
    full = (1 << n) - 1
    images = []
    for i, perm in enumerate(generators):
        if sorted(perm) != list(range(n)):
            raise ValueError(f"generator {i} is not a permutation of the {n} vertices")
        bits = [1 << p for p in perm]
        for v, row in enumerate(g.adj):
            target = g.adj[perm[v]]
            if 2 * row.bit_count() > n:
                row, target = full ^ row, full ^ target
            if _image(row, bits) != target:
                raise ValueError(
                    f"generator {i} is not an automorphism: vertex {v}'s row maps off vertex {perm[v]}'s"
                )
        images.append(bits)
    orbit = frontier = 1 & full
    while frontier:
        reach = 0
        for bits in images:
            reach |= _image(frontier, bits)
        frontier = reach & ~orbit
        orbit |= frontier
    if orbit != full:
        raise ValueError("the generators do not move vertex 0 to every vertex")
    return images


def _too_large() -> FamilyTooLargeError:
    return FamilyTooLargeError(f"more than {DEFAULT_MIS_CAP} maximum independent sets; use a structural family")


def enumerate_mis(g: Graph, generators: Sequence[Sequence[int]] = ()) -> MisFamily:
    """Every maximum independent set of ``g``, sorted by member tuple so equal
    families compare equal.

    Each connected component's sets are listed by one clique search that
    finds alpha on the way: its floor follows the largest set found so far,
    so every set of the final size is yielded once, and the list restarts
    whenever a larger set arrives.  The family is the product of the
    component lists: one set from each, ORed, since the parts are disjoint.
    Raises FamilyTooLargeError once the product of the component counts
    exceeds ``DEFAULT_MIS_CAP``, before the product is built.

    ``generators`` are vertex permutations, checked first to be
    automorphisms of ``g`` that together move vertex 0 to every vertex
    (ValueError otherwise).  With them, vertex 0's component is searched
    from vertex 0's non-neighbours alone, so the product holds just the
    sets through vertex 0, and the family is their closure under the
    generators, grown breadth-first and refused as soon as it passes
    ``DEFAULT_MIS_CAP``.  That closure is every maximum independent set:
    each one, S, holds some vertex v = s(0) for an s in the group the
    generators make; the inverse of s maps S to a maximum independent set
    through vertex 0, which the search listed, and an automorphism maps
    maximum independent sets to maximum independent sets, so S is an image
    of a listed set.  Applied to any one maximum set, the same argument
    puts vertex 0 in some maximum set, so vertex 0's component has alpha
    one more than the part of it off vertex 0's closed neighbourhood.
    """
    images = _verified_automorphisms(g, generators) if generators else None
    size = 0
    masks = [0]
    for rows, verts in _component_rows(g, (1 << g.n) - 1):
        start = (1 << len(verts)) - 1
        lead = 0
        if images and 0 in verts:
            i = verts.index(0)
            lead = 1 << i
            start &= ~(rows[i] | lead)
        headroom = DEFAULT_MIS_CAP // len(masks)
        floor = [0]  # at 0 an empty start still yields the empty set
        best = 0
        found = []
        for mask in _cliques(rows, start, floor):
            if mask.bit_count() > best:
                best = floor[0] = mask.bit_count()
                found = []
            found.append(mask)
            if len(found) > headroom:
                floor[0] = best + 1  # too many of this size: only a larger set can save the family
        if len(found) > headroom:
            raise _too_large()
        found = [_map_back(c | lead, verts) for c in found]
        masks = [m | c for m in masks for c in found]
        size += best + (lead != 0)
    if images:
        seen = set(masks)
        for mask in masks:  # the list grows behind this loop: a breadth-first closure
            for bits in images:
                image = _image(mask, bits)
                if image not in seen:
                    if len(seen) == DEFAULT_MIS_CAP:
                        raise _too_large()
                    seen.add(image)
                    masks.append(image)
    sets = sorted((VertexSet(g.n, m) for m in masks), key=VertexSet.members)
    return MisFamily(alpha=size, sets=tuple(sets))


def induced_subgraph(g: Graph, w: VertexSet) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on ``w`` plus the new-index -> old-vertex map."""
    if w.n != g.n:
        raise ValueError(f"vertex set over {w.n} vertices against graph on {g.n}")
    old = w.members()
    pos = {v: i for i, v in enumerate(old)}
    rows = []
    for v in old:
        row = 0
        for u in _iter_bits(g.adj[v] & w.bits):
            row |= 1 << pos[u]
        rows.append(row)
    return Graph(len(old), rows), old


def random_graph(n: int, p: float, seed) -> Graph:
    """Erdos-Renyi G(n, p) from a numpy seed or Generator; deterministic.

    One coin per pair (u, v), u < v, in ascending order: the doubles and the
    generator state after them are those of n(n-1)/2 scalar draws."""
    coins = (np.random.default_rng(seed).random(n * (n - 1) // 2) < p).tolist()
    rows = [0] * n
    for u, v in compress(combinations(range(n), 2), coins):
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def graph_to_json_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}


def _json_int(value, what: str) -> int:
    # bool is an int subclass, and int() would silently truncate a float
    if type(value) is not int:
        raise ValueError(f"graph JSON: {what} must be an integer, got {value!r}")
    return value


def graph_from_json_dict(obj: dict) -> Graph:
    """Graph from {"n": int, "edges": [[u, v], ...]}; malformed input raises ValueError."""
    missing = sorted({"n", "edges"} - obj.keys())
    if missing:
        raise ValueError(f"graph JSON lacks the field(s) {', '.join(missing)}")
    edges = obj["edges"]
    if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 2 for e in edges):
        raise ValueError("graph JSON: edges must be a list of [u, v] pairs")
    n = _json_int(obj["n"], "n")
    return Graph.from_edges(n, [(_json_int(u, "a vertex"), _json_int(v, "a vertex")) for u, v in edges])


def save_graph(g: Graph, path) -> None:
    with open(path, "w") as fh:
        json.dump(graph_to_json_dict(g), fh, sort_keys=True)
        fh.write("\n")


def parse_dimacs(text: str) -> Graph:
    """DIMACS edge format: one 'p edge n m' header, 'e u v' lines, 1-based."""
    n = None
    edges = []
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] in ("p", "e") and len(parts) < 3:
            raise ValueError(f"DIMACS line {line.strip()!r} has fewer than three fields")
        if parts[0] == "p":
            if n is not None:
                raise ValueError("second DIMACS problem line")
            n = int(parts[2])
        elif parts[0] == "e":
            if n is None:
                raise ValueError("DIMACS edge line before problem line")
            edges.append((int(parts[1]) - 1, int(parts[2]) - 1))
    if n is None:
        raise ValueError("missing DIMACS problem line")
    return Graph.from_edges(n, edges)


def load_graph(path) -> Graph:
    """Read a graph file, sniffing JSON vs DIMACS."""
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return graph_from_json_dict(json.loads(text))
    return parse_dimacs(text)

"""Minimum hitting sets over MIS families, and the covering-code view.

The exact solver is one depth-first search over vertex tuples in increasing
order: ``_least_transversal`` returns the lexicographically least transversal
within a budget, pruning with a greedy disjoint packing of the unhit sets as
the lower bound.  It does not branch on the last vertex: that is the least
member of the AND of the sets still unhit.  Nor does a frame with two
vertices left push its children: it tries each vertex v it could take next
itself, in ascending order, by one AND of the sets that miss v, masked to
the vertices above v and stopped as soon as it is empty.  Run at the
optimum h, the set it finds is the least optimal one, so results are
reproducible across runs and platforms.  ``min_hitting_set`` runs it at
budgets 1, 2, ... until it finds a set.  On a family whose automorphisms
move vertex 0 to every vertex, such as the shift and Hamming families, some
minimum transversal holds vertex 0, and then so does the least one: the
search takes vertex 0 and runs on the sets it misses alone, from budget 0.

For the Hamming family, hitting all radius-(m/2 - t) balls is the same as
being a covering code of radius m/2 - t in Z_2^m.  Every code the CLI scans
is the direct sum of a set P of p-bit prefixes and the repetition code
{0^L, 1^L} (L = m - p), and the covering radius of a direct sum is the sum
of the radii, here rho(P) + floor(L/2) (Graham & Sloane, "On the covering
radius of codes", IEEE Trans. IT 31, 1985; Cohen, Honkala, Litsyn &
Lobstein, "Covering Codes", 1997, ch. 3).  ``covering_radius`` finds the
largest such suffix and scans only the 2^p prefix words, by a min-plus
distance transform over the hypercube (Felzenszwalb & Huttenlocher,
"Distance transforms of sampled functions", 2012): p * 2^p byte
relaxations in one 2^p-byte array, so the radius is exact at any m for a
prefix of at most SCAN_MAX_PREFIX bits.  The one distance array gives the
radius and, by a closed form, the least far point.  ``find_far_point`` is
the independent witness: a word-by-codeword scan of the whole code with an
early exit.  A word w is far from
the whole code (distance > m/2 - t everywhere) exactly when, in the +/-1
encoding, its inner product with every codeword is below 2t, which is how
the discrepancy bound forces code sizes of at least ceil(t^2/36).

Upper-bound constructions: rows of a Sylvester Hadamard matrix of order h0
(the least power of two >= 4t^2) together with their complements, each
extended by an all-zeros and an all-ones suffix; and seeded random prefixes
of length 4t^2 extended the same two complementary ways.  The builders
refuse m below their prefix length, so 4t^2 <= m is checked there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import and_
from typing import Sequence

import numpy as np

from .families import HammingSpec
from .graph import Graph, MisFamily, VertexSet, enumerate_mis

SCAN_MAX_PREFIX = 24  # longest prefix covering_radius scans: 2^24 bytes of distances
SCAN_MAX_M = 28  # longest word find_far_point scans
CHUNK_BITS = 19  # low bits per chunk of find_far_point's word space


class InfeasibleFamilyError(ValueError):
    """A family member is empty, so no vertex set can hit everything."""


def _family_masks(family) -> tuple[list[int], int]:
    """Extract (bitmasks, universe size) from a MisFamily or a VertexSet sequence."""
    sets: Sequence[VertexSet] = family.sets if isinstance(family, MisFamily) else family
    if not sets:
        raise ValueError("family must be non-empty")
    n = sets[0].n
    masks = []
    for s in sets:
        if s.n != n:
            raise ValueError("family members live in different universes")
        if s.bits == 0:
            raise InfeasibleFamilyError("family contains an empty member")
        masks.append(s.bits)
    return masks, n


def _least_transversal(masks: list[int], budget: int) -> int | None:
    """The lexicographically least transversal of at most ``budget`` vertices,
    or None.

    Only transversals in which each vertex hits a set the earlier ones missed
    are searched; every minimum transversal is one, since each member has a
    set it alone hits.  A stack entry is a chosen prefix, the vertex just
    added, the sets unhit before it and the budget left.  Children are
    pushed in reverse, so the first transversal popped is the least.

    The last vertex is not branched on: it must lie in every unhit set, so
    with one vertex left the frame ANDs those sets and takes the least
    member of the result, or is cut if there is none.  That is the child the
    branching would have returned first: a vertex in every unhit set is at
    most each set's largest member, so it is among the children, and they
    pop in ascending order.

    A frame with two vertices left pushes no children: it runs them itself,
    lowest bit b first, the order in which they would have popped.  Child b
    returns ``chosen | b`` if no unhit set misses b.  Otherwise its answer
    is the AND of the sets that miss b, masked to the vertices above b (the
    child's own cut), with its least member added, and a zero AND moves on
    to the next b.  The AND starts from the mask, -(b << 1), which is
    negative until a set is ANDed in, and stops at the first set that
    empties it.  Each child run in place is one frame of the search.
    """
    stack = [(0, 0, masks, 0, budget)]
    while stack:
        chosen, bit, parent, lo, left = stack.pop()
        # members below lo can no longer be chosen
        unhit = [s >> lo << lo for s in parent if not s & bit]
        if not unhit:
            return chosen
        if left == 1:
            inter = reduce(and_, unhit)
            if inter:
                return chosen | inter & -inter
            continue
        unhit.sort(key=int.bit_count)
        if not unhit[0]:  # a set with no member left sorts first
            continue
        used = count = 0
        for s in unhit:  # a greedy disjoint packing needs one vertex per set
            if not s & used:
                used |= s
                count += 1
                if count > left:
                    break
        if count > left:
            continue
        # the next vertex hits some unhit set and is at most every set's largest member
        cand = 0
        for s in unhit:
            cand |= s
        cand &= (1 << min(s.bit_length() for s in unhit)) - 1
        if left == 2:  # run the last-vertex children here, in the order they would pop
            while cand:
                b = cand & -cand
                cand ^= b
                inter = -(b << 1)  # the vertices above b
                for s in unhit:
                    if not s & b:
                        inter &= s
                        if not inter:
                            break
                else:  # inter is still negative if no set misses b
                    return chosen | b if inter < 0 else chosen | b | inter & -inter
            continue
        while cand:
            v = cand.bit_length() - 1
            cand ^= 1 << v
            stack.append((chosen | 1 << v, 1 << v, unhit, v + 1, left - 1))
    return None


def min_hitting_set(family, transitive: bool = False) -> VertexSet:
    """Exact minimum-cardinality set meeting every family member.

    ``family`` is a MisFamily or a sequence of VertexSets over one universe.
    The lexicographic search runs at budgets 1, 2, ... and its first set is
    returned, so no smaller budget admits a transversal, and ties among
    optima are broken toward the lexicographically least vertex tuple.

    ``transitive`` says that some minimum transversal holds vertex 0, as on
    a family whose automorphisms move vertex 0 to every vertex.  The search
    then takes vertex 0, runs on the sets it misses at budgets 0, 1, ...,
    and returns vertex 0 with the first set found.  That is the same set.
    Let h be the optimum.  Vertex 0 is the least vertex, so the least
    minimum transversal T holds it too.  A transversal R of the sets 0
    misses gives the transversal R + {0}, so R has at least h - 1 vertices,
    and T - {0} is one with h - 1.  The search therefore stops at budget
    h - 1 and returns the least such R of h - 1 vertices, so R <= T - {0}.
    R + {0} is a minimum transversal, so T <= R + {0}, and as both begin
    with 0, T - {0} <= R.  If no minimum transversal holds 0, the set
    returned still hits every member, so a wrong flag makes h too large,
    never too small.
    """
    masks, n = _family_masks(family)
    lead = int(transitive)  # vertex 0's bit, or no vertex
    budget = 1 - lead
    rest = [s for s in masks if not s & lead]
    while (found := _least_transversal(rest, budget)) is None:
        budget += 1
    return VertexSet(n, lead | found)


def h_of_graph(g: Graph) -> VertexSet:
    """A minimum transversal of all maximum independent sets of ``g``, of size
    h(g).  Raises FamilyTooLargeError where ``enumerate_mis`` refuses."""
    return min_hitting_set(enumerate_mis(g))


# ---------------------------------------------------------------------------
# covering codes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoveringCode:
    """A set of binary m-words aimed at covering radius ``target_radius``.

    Words are canonicalised (sorted, deduplicated) on construction so radius
    computations and file exports are reproducible.
    """

    m: int
    words: tuple[int, ...]
    target_radius: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("word length must be positive")
        if not 0 <= self.target_radius <= self.m:
            raise ValueError(f"target radius {self.target_radius} out of range 0..{self.m}")
        canon = tuple(sorted(set(self.words)))
        for w in canon:
            if w < 0 or w >> self.m:
                raise ValueError(f"word {w:#x} is not a {self.m}-bit value")
        object.__setattr__(self, "words", canon)

    def __len__(self) -> int:
        return len(self.words)


def _check_scan_range(code: CoveringCode, bits: int, limit: int) -> None:
    if not code.words:
        raise ValueError("empty code has no covering radius")
    if bits > limit:
        raise ValueError(f"exhaustive scan supports at most {limit} bits, got {bits}")


def _repetition_suffix(code: CoveringCode) -> int:
    """The largest L such that every word's top L bits are all 0 or all 1 and
    flipping them gives another codeword, or 0.  The code is then the direct
    sum of its (m - L)-bit prefixes and the repetition code {0^L, 1^L}."""
    m = code.m
    full = (1 << m) - 1
    words = set(code.words)
    # a word's run of equal top bits bounds L; the flip test is not monotone in L
    top = min((m - min(w.bit_length(), (w ^ full).bit_length()) for w in code.words), default=0)
    for length in range(top, 0, -1):
        flip = full ^ full >> length
        if all(w ^ flip in words for w in code.words):
            return length
    return 0


def covering_radius(code: CoveringCode) -> tuple[int, int | None]:
    """Exact covering radius and the least far point, from one distance transform.

    The code is split as the direct sum of a prefix set P of p bits and the
    repetition code of its L = m - p top bits, with L from
    ``_repetition_suffix`` (L = 0 scans the whole code).  A word (x, y) is
    at distance d(x, P) + min(wt y, L - wt y) from the code, since both
    suffixes go with every prefix, so the radius is rho(P) + floor(L/2).
    d(x, P) comes from one array over the 2^p prefix words, set to 0 at P
    and to p + 1 elsewhere, relaxed along each bit.

    The far point is the least word at distance > ``code.target_radius``,
    or None.  With c = max(0, target - rho(P) + 1), a suffix needs
    min(wt y, L - wt y) >= c, so there is none if c > floor(L/2); otherwise
    the least suffix is y = 2^c - 1 and x is the least prefix word at
    distance > target - c from P.  The scan needs p <= SCAN_MAX_PREFIX.
    """
    m = code.m
    rep = _repetition_suffix(code)
    p = m - rep
    _check_scan_range(code, p, SCAN_MAX_PREFIX)
    d = np.full(1 << p, p + 1, dtype=np.uint8)
    d[[w & (1 << p) - 1 for w in code.words]] = 0
    buf = np.empty(d.size // 2, dtype=np.uint8)
    for j in range(p):  # relax along bit j: lo = min(lo, hi + 1), then hi = min(hi, lo + 1)
        halves = d.reshape(-1, 2, 1 << j)
        lo, hi = halves[:, 0], halves[:, 1]
        tmp = buf.reshape(-1, 1 << j)
        np.add(hi, 1, out=tmp)
        np.minimum(lo, tmp, out=lo)
        np.add(lo, 1, out=tmp)
        np.minimum(hi, tmp, out=hi)
    rho = int(d.max())
    c = max(0, code.target_radius - rho + 1)
    if c > rep // 2:
        return rho + rep // 2, None
    x = int(np.argmax(d >= code.target_radius - c + 1))  # distance > target - c, which can be -1
    return rho + rep // 2, x | ((1 << c) - 1) << p


def find_far_point(code: CoveringCode) -> int | None:
    """A word at distance > ``code.target_radius`` from every codeword, or None.

    Exhaustive, hence complete, with an early exit at the first far word;
    needs m <= 28.  It scans each chunk of words against every codeword in
    turn, independently of the distance transform in ``covering_radius``.
    With target radius m/2 - t, the far condition reads inner product < 2t
    against every codeword in the +/-1 encoding, via inner product =
    m - 2 * distance.
    """
    _check_scan_range(code, code.m, SCAN_MAX_M)
    m = code.m
    arr = np.array(code.words, dtype=np.uint32)
    step = 1 << min(CHUNK_BITS, m)
    for start in range(0, 1 << m, step):
        space = np.arange(start, start + step, dtype=np.uint32)
        mind = np.full(space.shape, m + 1, dtype=np.uint8)
        for c in arr:
            np.minimum(mind, np.bitwise_count(space ^ c), out=mind)
        far = np.nonzero(mind > code.target_radius)[0]
        if far.size:
            return start + int(far[0])
    return None


def discrepancy_lower_bound(spec: HammingSpec) -> int:
    """Least code size T not excluded by the inner-product argument.

    A code of T words admits a +/-1 vector with all inner products at most
    12*sqrt(T) in absolute value; when 12*sqrt(T) < 2t that vector is far
    from every codeword, so any covering code of radius m/2 - t must have
    T >= ceil(t^2/36).  Returned without any silent strengthening.
    """
    return (spec.t * spec.t + 35) // 36


def kneser_lower_bound(spec: HammingSpec) -> int:
    """The lower bound 2t from the Kneser subgraph; weaker than the t^2/36 order."""
    return 2 * spec.t


def sylvester_hadamard_rows(order: int) -> list[int]:
    """Rows of the Sylvester Hadamard matrix as binary words.

    Bit j of row i is the parity of popcount(i & j), i.e. entry -1 of the
    +/-1 matrix maps to bit 1.  Built by doubling, H_2k = [[H_k, H_k],
    [H_k, -H_k]]: row r of order k gives row r | r << k and, k rows later,
    row r | (r ^ mask) << k of order 2k, with mask the k one bits.
    """
    if order < 1 or order & (order - 1):
        raise ValueError("Sylvester order must be a power of two")
    rows = [0]
    k = 1
    while k < order:
        mask = (1 << k) - 1
        rows = [r | r << k for r in rows] + [r | (r ^ mask) << k for r in rows]
        k <<= 1
    return rows


def hadamard_prefix_order(t: int) -> int:
    """Least power of two >= 4t^2, for t >= 1."""
    return 1 << (4 * t * t - 1).bit_length()


def build_hadamard_covering_code(spec: HammingSpec) -> CoveringCode:
    """Hadamard rows and their complements, extended two complementary ways.

    Every Sylvester row of order h0 (least power of two >= 4t^2) and its
    complement forms an h0-prefix; each prefix is completed by an all-zeros
    and an all-ones suffix, giving 4*h0 words of length m.
    """
    h0 = hadamard_prefix_order(spec.t)
    if spec.m < h0:
        raise ValueError(f"m={spec.m} is below the Hadamard prefix order {h0}")
    pre_mask = (1 << h0) - 1
    return _suffixed_code(spec, h0, [p for row in sylvester_hadamard_rows(h0) for p in (row, row ^ pre_mask)])


def _suffixed_code(spec: HammingSpec, prefix_len: int, prefixes: list[int]) -> CoveringCode:
    """Each ``prefix_len``-bit prefix completed by an all-zeros and an all-ones suffix."""
    ones_suffix = ((1 << (spec.m - prefix_len)) - 1) << prefix_len
    words = tuple(w for p in prefixes for w in (p, p | ones_suffix))
    return CoveringCode(m=spec.m, words=words, target_radius=spec.ball_radius)


@dataclass(frozen=True)
class RandomCodeOutcome:
    """Result of the randomized construction: ``code`` is None after failure.

    ``radius`` and ``far_point`` are the accepted code's ``covering_radius``
    result, or None with the code.
    """

    code: CoveringCode | None
    trials_used: int
    radius: int | None = None
    far_point: int | None = None


def build_random_covering_code(
    spec: HammingSpec,
    trials: int,
    rng_seed,
    count: int | None = None,
) -> RandomCodeOutcome:
    """Random length-4t^2 prefixes extended two complementary ways.

    Each trial samples ``count`` prefixes (default 16t^2, matching the
    Hadamard code size), extends each with the all-zeros and the all-ones
    suffix, and accepts the first trial whose exhaustively scanned covering
    radius is at most m/2 - t, so a prefix longer than SCAN_MAX_PREFIX bits
    is refused.
    """
    prefix_len = 4 * spec.t * spec.t
    if prefix_len > spec.m:
        raise ValueError(f"prefix length 4t^2={prefix_len} exceeds m={spec.m}")
    if prefix_len > SCAN_MAX_PREFIX:
        raise ValueError(
            f"the random method scans every trial's prefix, which needs 4t^2 <= {SCAN_MAX_PREFIX}, got {prefix_len}"
        )
    if count is None:
        count = 4 * prefix_len
    rng = np.random.default_rng(rng_seed)
    nbytes = (prefix_len + 7) // 8
    pmask = (1 << prefix_len) - 1
    for trial in range(1, trials + 1):
        prefixes = [int.from_bytes(rng.bytes(nbytes), "little") & pmask for _ in range(count)]
        code = _suffixed_code(spec, prefix_len, prefixes)
        radius, far_point = covering_radius(code)
        if radius <= spec.ball_radius:
            return RandomCodeOutcome(code=code, trials_used=trial, radius=radius, far_point=far_point)
    return RandomCodeOutcome(code=None, trials_used=trials)


def min_covering_code_search(m: int, radius: int) -> CoveringCode:
    """Smallest code of covering radius <= ``radius`` by direct subset search.

    Independent of the hitting-set solver: enumerates candidate codes in
    lexicographic order by increasing size over precomputed ball masks.
    Exponential; intended for the m <= 6 cross-checks.
    """
    if m > 6:
        raise ValueError("direct code search is only supported for m <= 6")
    if not 0 <= radius <= m:
        raise ValueError("radius out of range")
    size_space = 1 << m
    balls = []
    words = np.arange(size_space, dtype=np.uint32)
    for c in range(size_space):
        near = np.bitwise_count(words ^ np.uint32(c)) <= radius
        packed = np.packbits(near, bitorder="little").tobytes()
        balls.append(int.from_bytes(packed, "little"))
    full = (1 << size_space) - 1
    # the whole space covers at radius 0, so the search stops by size 2^m
    for size in range(1, size_space + 1):
        for combo in combinations(range(size_space), size):
            cover = 0
            for c in combo:
                cover |= balls[c]
            if cover == full:
                return CoveringCode(m=m, words=combo, target_radius=radius)


# ---------------------------------------------------------------------------
# code files
# ---------------------------------------------------------------------------


def word_to_string(word: int, m: int) -> str:
    """0/1 string with position j holding bit j of the word."""
    return "".join("1" if word >> j & 1 else "0" for j in range(m))


def write_code(code: CoveringCode, path) -> None:
    t = code.m // 2 - code.target_radius
    with open(path, "w") as fh:
        fh.write(f"m={code.m} t={t}\n")
        for w in code.words:
            fh.write(word_to_string(w, code.m) + "\n")

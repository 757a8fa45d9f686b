"""Acceptance criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE <k>: PASS|FAIL`` line (visible under
``pytest -s``) and then asserts.  All tolerances are exact unless the
criterion itself is statistical, in which case the stated slack is coded
here verbatim.
"""

import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from conftest import vertex_set
from mishit.cli import main
from mishit.families import (
    HammingSpec,
    build_hamming_graph,
    build_shift_graph,
    hamming_mis_family,
    kleitman_alpha,
    shift_cycle_hitting_set,
    shift_mis_family,
    shift_mis_from_partition,
)
from mishit.graph import (
    alpha,
    enumerate_mis,
    is_independent,
    random_graph,
    save_graph,
)
from mishit.hajnal import exhaustive_corpus_check, random_corpus_check
from mishit.hitting import (
    CoveringCode,
    build_hadamard_covering_code,
    covering_radius,
    find_far_point,
    h_of_graph,
    min_covering_code_search,
    min_hitting_set,
)
from mishit.process import (
    ProcessParams,
    alpha_prime_bound,
    alpha_prime_exact,
    alpha_prime_mc,
    run_deletion_traces,
    success_statistics,
)


def report(criterion: int, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_1_shift_graph_values():
    ok = True
    details = []
    for k in (2, 3):
        g, spec = build_shift_graph(k)
        a = alpha(g)
        family = enumerate_mis(g)
        partition_bits = {
            shift_mis_from_partition(spec, s).bits
            for s in combinations(range(1, 2 * k + 1), k)
        }
        h = len(min_hitting_set(family))
        ok &= a == k * k
        ok &= len(family) == math.comb(2 * k, k)
        ok &= {s.bits for s in family.sets} == partition_bits
        ok &= h == k + 1
        details.append(f"k={k}: alpha={a} mis={len(family)} h={h}")
    g4, _ = build_shift_graph(4)
    family4 = enumerate_mis(g4)
    h4 = len(min_hitting_set(family4))
    ok &= len(family4) == 70 and h4 == 5
    details.append(f"k=4: mis={len(family4)} h={h4}")
    report(1, ok, "; ".join(details))
    assert ok


def test_criterion_2_hitting_lower_bound_mechanism():
    ok = True
    # k = 2: every vertex set of size <= 2 misses some maximum independent set
    _, spec2 = build_shift_graph(2)
    family2 = shift_mis_family(spec2)
    for size in (1, 2):
        for members in combinations(range(spec2.n), size):
            h = vertex_set(spec2.n, members)
            ok &= any(s.isdisjoint(h) for s in family2.sets)
    cyc2 = shift_cycle_hitting_set(spec2)
    ok &= all(not s.isdisjoint(cyc2) for s in family2.sets)
    # k = 3: seeded random sets of size <= 3
    _, spec3 = build_shift_graph(3)
    family3 = shift_mis_family(spec3)
    rng = np.random.default_rng(20250811)
    misses = 0
    for _ in range(10_000):
        size = int(rng.integers(1, 4))
        members = rng.choice(spec3.n, size=size, replace=False)
        h = vertex_set(spec3.n, (int(v) for v in members))
        misses += any(s.isdisjoint(h) for s in family3.sets)
    ok &= misses == 10_000
    cyc3 = shift_cycle_hitting_set(spec3)
    ok &= all(not s.isdisjoint(cyc3) for s in family3.sets)
    report(2, ok, f"k=2 exhaustive, k=3 misses {misses}/10000, cycles hit all")
    assert ok


def test_criterion_3_hamming_family():
    ok = True
    details = []
    for m, t in ((4, 1), (6, 1)):
        spec = HammingSpec(m, t)
        g = build_hamming_graph(spec)
        a = alpha(g)
        kle = kleitman_alpha(spec)
        balls = hamming_mis_family(spec)
        ok &= a == kle
        ok &= len({b.bits for b in balls.sets}) == spec.n
        if m == 4:
            enumerated = enumerate_mis(g)
            ok &= {s.bits for s in enumerated.sets} == {b.bits for b in balls.sets}
        else:
            ok &= all(is_independent(g, b) and len(b) == kle for b in balls.sets)
        details.append(f"(m={m},t={t}): alpha={a}")
    report(3, ok, "; ".join(details))
    assert ok


def test_criterion_4_covering_code_correspondence():
    spec = HammingSpec(4, 1)
    g = build_hamming_graph(spec)
    h = len(h_of_graph(g))
    code_size = len(min_covering_code_search(4, 1))
    ok = h == code_size == 4
    report(4, ok, f"h(G_4,1)={h}, min radius-1 code size={code_size}")
    assert ok


def test_criterion_5_hadamard_upper_bound():
    ok = True
    details = []
    for m in (8, 10, 12):
        spec = HammingSpec(m, 1)
        code = build_hadamard_covering_code(spec)
        radius, _ = covering_radius(code)
        ok &= len(code) == 16 and radius <= m // 2 - 1
        details.append(f"m={m}: size={len(code)} radius={radius}")
    report(5, ok, "; ".join(details))
    assert ok


def test_criterion_6_discrepancy_mechanism():
    rng = np.random.default_rng(61803)
    ok = True
    witnesses = 0
    for _ in range(1_000):
        m = int(rng.choice([4, 6, 8, 10, 12]))
        t = int(rng.integers(1, m // 2 + 1))
        size = int(rng.integers(1, 17))
        words = tuple(int(w) for w in rng.integers(0, 1 << m, size=size))
        code = CoveringCode(m, words, m // 2 - t)
        radius, _ = covering_radius(code)
        far = find_far_point(code)
        if radius <= m // 2 - t:
            ok &= far is None
        else:
            ok &= far is not None
            # verify the witness directly against every codeword
            ok &= all(2 * ((far ^ c).bit_count()) > m - 2 * t for c in code.words)
            witnesses += 1
    report(6, ok, f"1000 seeded codes, {witnesses} with a far-point witness")
    assert ok


def test_criterion_7_hajnal_inequality():
    exhaustive = exhaustive_corpus_check(7)
    random_part, _ = random_corpus_check(10_000, seed=20250811, n_max=14)
    ok = exhaustive.ok and random_part.ok
    report(
        7,
        ok,
        f"exhaustive n<=7: {exhaustive.checked} graphs, {exhaustive.violations} violations; "
        f"random: {random_part.checked} graphs, {random_part.violations} violations",
    )
    assert ok


def test_criterion_8_deletion_process_mechanism():
    g, _ = build_shift_graph(2)
    est = alpha_prime_exact(g)
    bound = alpha_prime_bound(Fraction(1, 12))
    ok = bound == Fraction(143, 432)
    holds_here = est.mean <= bound
    params = ProcessParams.for_graph(12, Fraction(1, 12))
    traces = run_deletion_traces(g, params, 100, seed=8888)
    kernel_ok = True
    for trace in traces:
        prev = trace.initial_alpha
        for step in trace.steps:
            if step.kernel_size is not None:
                vertices_before = params.n - step.i + 1
                kernel_ok &= step.kernel_size >= 2 * prev - vertices_before
            prev = step.alpha
    stats = success_statistics(traces, params)
    ok &= kernel_ok and stats.frequency_ok and stats.qualifying_steps > 0
    report(
        8,
        ok,
        f"alpha'(G_2)={est.mean} vs 143/432 (bound holds at n=12: {holds_here}); "
        f"kernel floor ok={kernel_ok}; success freq {stats.success_frequency:.3f} "
        f"within the binomial 3-sigma tail at eps over {stats.qualifying_steps} steps",
    )
    assert ok


def test_criterion_9_estimator_consistency():
    rng = np.random.default_rng(2025)
    covered = 0
    for i in range(30):
        n = int(rng.integers(4, 17))
        p = float(rng.uniform(0.15, 0.85))
        g = random_graph(n, p, rng)
        exact = float(alpha_prime_exact(g).mean)
        est = alpha_prime_mc(g, 1_500, seed=[2025, i])
        lo, hi = est.ci95
        covered += lo <= exact <= hi
    ok = covered >= 27
    report(9, ok, f"{covered}/30 confidence intervals cover the exact value")
    assert ok


def test_criterion_10_determinism(tmp_path):
    g, _ = build_shift_graph(2)
    graph_file = tmp_path / "g2.json"
    save_graph(g, graph_file)
    commands = {
        "process": ["process", "--graph", str(graph_file), "--traces", "15", "--seed", "77"],
        "alpha-prime-mc": ["alpha-prime", "--graph", str(graph_file), "--mode", "mc",
                           "--samples", "2000", "--seed", "77"],
        "covering-code-random": ["covering-code", "--m", "4", "--t", "1",
                                 "--method", "random", "--trials", "50", "--seed", "77"],
        "hajnal-corpus-random": ["hajnal-corpus", "--max-n", "4", "--random", "60", "--seed", "77"],
    }
    ok = True
    for name, argv in commands.items():
        first = tmp_path / f"{name}-1.json"
        second = tmp_path / f"{name}-2.json"
        assert main(argv + ["--json", str(first)]) == 0
        assert main(argv + ["--json", str(second)]) == 0
        same = first.read_bytes() == second.read_bytes()
        json.loads(first.read_text())
        ok &= same
    report(10, ok, f"{len(commands)} stochastic commands re-ran byte-identically")
    assert ok

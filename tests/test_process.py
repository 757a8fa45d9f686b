"""alpha', the deletion process, and the averaged bound."""

import json
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import mishit.parallel
import mishit.process
from conftest import cycle_graph, disjoint_union, hub_graph, oracle_is_independent, oracle_mis_masks, seeded_graphs
from mishit.cli import main
from mishit.families import build_shift_graph
from mishit.graph import (
    Graph, VertexSet, _components, _solve_kernel_corona, _subset_alpha_tables, alpha, alpha_induced, random_graph, save_graph
)
from mishit.hajnal import _table_kernel_corona
from mishit.parallel import parallel_map
from mishit.process import (
    AlphaPrimeEstimate,
    ProcessParams,
    ProcessStep,
    ProcessTrace,
    _binomial_tail_at_least,
    _mc_tables,
    _starting_components,
    _subset_alpha_table,
    alpha_prime_bound,
    alpha_prime_exact,
    alpha_prime_mc,
    export_trace_jsonl,
    run_deletion_process,
    run_deletion_traces,
    success_statistics,
)

G2 = build_shift_graph(2)[0]
G2_ALPHA_PRIME = Fraction(6359, 24576)  # frozen from the subset-sum oracle below


# --- exact estimator --------------------------------------------------------


def test_single_vertex():
    assert alpha_prime_exact(Graph.empty(1)).mean == Fraction(1, 2)


def test_edgeless():
    assert alpha_prime_exact(Graph.empty(7)).mean == Fraction(1, 2)


def test_k2():
    est = alpha_prime_exact(Graph.from_edges(2, [(0, 1)]))
    assert est.mean == Fraction(3, 8)
    assert est.exact


def oracle_alpha_prime(g):
    """Sum of brute-force alpha over every subset; quadratic in 2^n, keep n small."""
    total = 0
    for bits in range(1 << g.n):
        total += max(
            (cand.bit_count()
             for cand in range(1 << g.n)
             if cand & ~bits == 0 and oracle_is_independent(g, cand)),
            default=0,
        )
    return Fraction(total, (1 << g.n) * g.n)


def test_dp_matches_subset_oracle():
    path4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert alpha_prime_exact(path4).mean == oracle_alpha_prime(path4)
    for g in seeded_graphs(8, seed=76, n_lo=2, n_hi=8):
        assert alpha_prime_exact(g).mean == oracle_alpha_prime(g)


def test_g2_frozen_value():
    # constant cross-derived from an independent implementation of the same sum
    assert alpha_prime_exact(G2).mean == G2_ALPHA_PRIME


def test_exact_rejects_out_of_range():
    with pytest.raises(ValueError):
        alpha_prime_exact(Graph.empty(0))
    with pytest.raises(ValueError):  # one connected component of 21 vertices
        alpha_prime_exact(Graph.from_edges(21, [(i, i + 1) for i in range(20)]))


@pytest.mark.parametrize("copies", [1, 2, 16, 32])
def test_exact_on_disjoint_copies(copies):
    # the DP limit bounds the largest component, so 32 copies (n = 384) are in range
    assert alpha_prime_exact(disjoint_union(*[G2] * copies)).mean == G2_ALPHA_PRIME


def test_exact_edgeless_beyond_component_limit():
    assert alpha_prime_exact(Graph.empty(21)).mean == Fraction(1, 2)


def test_linearity_under_disjoint_union():
    for g in seeded_graphs(10, seed=77, n_lo=2, n_hi=8):
        double = Graph.from_edges(
            2 * g.n, [(u, v) for u, v in g.edges()] + [(u + g.n, v + g.n) for u, v in g.edges()]
        )
        assert alpha_prime_exact(double).mean == alpha_prime_exact(g).mean


def test_alpha_prime_at_most_alpha_over_n():
    for g in seeded_graphs(15, seed=78, n_lo=1, n_hi=10):
        assert alpha_prime_exact(g).mean <= Fraction(alpha(g), g.n)


def brute_subset_alpha_table(g):
    """For every subset W, by mask, the largest independent set inside W."""
    independent = [m for m in range(1 << g.n) if oracle_is_independent(g, m)]
    return [max(m.bit_count() for m in independent if m & ~w == 0) for w in range(1 << g.n)]


def loop_subset_alpha_sum(g):
    """The subset DP one set at a time, branching on the lowest vertex."""
    closed = [g.adj[v] | (1 << v) for v in range(g.n)]
    table = [0] * (1 << g.n)
    for w in range(1, 1 << g.n):
        v = (w & -w).bit_length() - 1
        table[w] = max(table[w & (w - 1)], 1 + table[w & ~closed[v]])
    return sum(table)


SUBSET_DP_GRAPHS = [Graph.empty(0), Graph.empty(10), Graph.complete(10), *seeded_graphs(12, seed=79, n_hi=10)]


def full_table(g):
    verts, table = _subset_alpha_table(g, (1 << g.n) - 1)
    assert verts == tuple(range(g.n))
    return table


def test_subset_dp_matches_brute_force():
    for g in SUBSET_DP_GRAPHS:
        assert int(full_table(g).sum()) == sum(brute_subset_alpha_table(g))


def test_subset_table_matches_brute_force_at_every_set():
    for g in SUBSET_DP_GRAPHS:
        table = full_table(g)
        assert table.dtype == np.uint8 and len(table) == 1 << g.n
        assert table.tolist() == brute_subset_alpha_table(g)


@pytest.mark.parametrize("n", range(1, 9))
def test_one_batch_of_different_graphs_matches_brute_force_graph_by_graph(n):
    rng = np.random.default_rng(85 + n)
    graphs = [Graph.empty(n), Graph.complete(n), *(random_graph(n, p, rng) for p in (0.2, 0.5, 0.8))]
    tables = _subset_alpha_tables(np.array([g.adj for g in graphs], dtype=np.int64).reshape(len(graphs), n))
    coins = np.array([[g.adj[u] >> v & 1 for u in range(n) for v in range(u + 1, n)] for g in graphs], dtype=bool)
    alphas, kernels, coronas = _table_kernel_corona(n, coins.reshape(len(graphs), -1))
    for g, table, a, ker, cor in zip(graphs, tables, alphas, kernels, coronas):
        assert table.tolist() == brute_subset_alpha_table(g)
        masks = oracle_mis_masks(g)
        kernel = corona = masks[0]
        for m in masks:
            kernel &= m
            corona |= m
        assert (a, ker, cor) == (masks[0].bit_count(), kernel.bit_count(), corona.bit_count())


def test_subset_table_of_a_restriction_is_indexed_by_its_ascending_vertices():
    for g in seeded_graphs(10, seed=84, n_lo=4, n_hi=12):
        within = int(np.random.default_rng(g.n).integers(0, 1 << g.n))
        verts, table = _subset_alpha_table(g, within)
        assert verts == VertexSet(g.n, within).members()
        for local in range(1 << len(verts)):
            w = sum(1 << v for j, v in enumerate(verts) if local >> j & 1)
            assert table[local] == alpha_induced(g, w)


def test_subset_dp_matches_the_lowest_vertex_loop():
    for g in [G2, *seeded_graphs(20, seed=80, n_lo=8, n_hi=14)]:
        assert int(full_table(g).sum()) == loop_subset_alpha_sum(g)


# --- monte carlo ------------------------------------------------------------


def test_mc_deterministic_and_covers_exact():
    est = alpha_prime_mc(G2, samples=10_000, seed=31)
    again = alpha_prime_mc(G2, samples=10_000, seed=31)
    assert est == again
    lo, hi = est.ci95
    assert lo <= float(G2_ALPHA_PRIME) <= hi
    parallel = alpha_prime_mc(G2, samples=10_000, seed=31, workers=2)
    assert parallel == est


def test_pool_no_larger_than_the_work(monkeypatch):
    # a process pool forks all its workers up front, so it is sized to the items
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            return map(fn, items)

    fake_futures = SimpleNamespace(ProcessPoolExecutor=FakePool)
    monkeypatch.setattr(mishit.parallel, "concurrent", SimpleNamespace(futures=fake_futures))
    assert parallel_map(abs, [-1, -2, -3, -4, -5], workers=64) == [1, 2, 3, 4, 5]
    assert parallel_map(abs, [-1, -2, -3], workers=2) == [1, 2, 3]
    assert parallel_map(abs, [-7], workers=8) == [7]  # one item runs in-process
    assert sizes == [5, 2]


def test_mc_single_sample_has_no_stderr():
    est = alpha_prime_mc(G2, samples=1, seed=4)
    assert est.samples == 1
    assert est.stderr is None and est.ci95 is None


def test_mc_edgeless_near_half():
    est = alpha_prime_mc(Graph.empty(10), samples=4_000, seed=9)
    assert est.ci95[0] <= 0.5 <= est.ci95[1]


def test_mc_rejects_bad_samples():
    with pytest.raises(ValueError):
        alpha_prime_mc(G2, samples=0, seed=1)


def reference_alpha_prime_mc(g, samples, seed):
    """The per-sample definition: block b's generator, seeded (seed, b), draws
    each of its samples as ceil(n/8) bytes, read little-endian and cut to n
    bits, and alpha(G[W]) is solved by search."""
    values = []
    for block in range(math.ceil(samples / 512)):
        rng = np.random.default_rng([seed, block])
        for _ in range(min(512, samples - 512 * block)):
            w = int.from_bytes(rng.bytes((g.n + 7) // 8), "little") & ((1 << g.n) - 1)
            values.append(alpha_induced(g, w))
    arr = np.array(values, dtype=np.float64)
    mean = float(arr.mean()) / g.n
    if samples == 1:
        return AlphaPrimeEstimate(mean=mean, exact=False, samples=1)
    stderr = float(arr.std(ddof=1)) / math.sqrt(samples) / g.n
    return AlphaPrimeEstimate(mean=mean, exact=False, samples=samples, stderr=stderr,
                              ci95=(mean - 1.96 * stderr, mean + 1.96 * stderr))


MC_GRAPHS = {
    "g2": G2,
    "g2x4": disjoint_union(G2, G2, G2, G2),
    "g2+c8": disjoint_union(G2, cycle_graph(8)),
    "edgeless10": Graph.empty(10),
    "n1": Graph.empty(1),
    "connected24": random_graph(24, 0.2, 3),  # one component beyond the tables
    "two20+g2": disjoint_union(random_graph(20, 0.3, 2), random_graph(20, 0.3, 3), G2),
    "n71": disjoint_union(G2, G2, G2, G2, cycle_graph(23)),  # three words per sample
}


@pytest.mark.parametrize("samples", [1, 511, 513, 1300])
@pytest.mark.parametrize("name", list(MC_GRAPHS))
def test_mc_equals_the_per_sample_definition(name, samples):
    g = MC_GRAPHS[name]
    assert alpha_prime_mc(g, samples, seed=17) == reference_alpha_prime_mc(g, samples, 17)


def test_mc_equals_the_per_sample_definition_on_two_workers():
    g = MC_GRAPHS["n71"]
    assert alpha_prime_mc(g, 1300, seed=[3, 9], workers=2) == reference_alpha_prime_mc(g, 1300, [3, 9])


def test_mc_tables_fill_smallest_components_first_within_the_budget():
    assert len(_components(MC_GRAPHS["connected24"], (1 << 24) - 1)) == 1
    tables, rest = _mc_tables(MC_GRAPHS["connected24"])
    assert tables == [] and rest == (1 << 24) - 1
    tables, rest = _mc_tables(MC_GRAPHS["two20+g2"])
    assert [verts for verts, _ in tables] == [tuple(range(40, 52))]
    assert rest == (1 << 40) - 1
    tables, rest = _mc_tables(disjoint_union(random_graph(20, 0.3, 2), random_graph(20, 0.3, 3)))
    assert [len(verts) for verts, _ in tables] == [20] and rest.bit_count() == 20


@pytest.mark.parametrize("n", [1, 8, 31, 33, 70])
def test_block_draw_equals_successive_bytes_draws(n):
    # the Monte Carlo relies on this numpy behaviour to keep its samples; a change must fail here
    count = 7
    words = np.random.default_rng([5, 2]).integers(0, 1 << 32, size=(count, (n + 31) // 32), dtype=np.uint32)
    rng = np.random.default_rng([5, 2])
    for row in words:
        assert row.astype("<u4").tobytes()[: (n + 7) // 8] == rng.bytes((n + 7) // 8)


@pytest.mark.parametrize("g, searched", [(MC_GRAPHS["g2x4"], 0), (MC_GRAPHS["g2+c8"], 0), (cycle_graph(22), 300)],
                         ids=["g2x4", "g2+c8", "cycle22"])
def test_mc_searches_only_components_beyond_the_tables(monkeypatch, g, searched):
    calls = []
    original = mishit.process.alpha_induced

    def counting(graph, within):
        calls.append(within)
        return original(graph, within)

    monkeypatch.setattr(mishit.process, "alpha_induced", counting)
    alpha_prime_mc(g, 300, seed=8)
    assert len(calls) == searched


# --- process ----------------------------------------------------------------


def test_params_for_g2():
    params = ProcessParams.for_graph(12, Fraction(1, 12))
    assert params.i0 == 5
    assert params.target_size == 6
    assert params.threshold == Fraction(95, 24)
    assert params.window == 1
    assert params.required_successes == 1


def test_params_validation():
    with pytest.raises(ValueError):
        ProcessParams.for_graph(12, Fraction(1, 4))
    with pytest.raises(ValueError):
        ProcessParams.for_graph(12, Fraction(0))
    with pytest.raises(ValueError):
        ProcessParams.for_graph(12, Fraction(1, 12), target_size=12)
    with pytest.raises(ValueError):
        # i0 = 4 >= n - target_size = 2
        ProcessParams.for_graph(10, Fraction(1, 24), target_size=8)


def trace_invariants(trace, params):
    prev = trace.initial_alpha
    for step in trace.steps:
        assert 0 <= prev - step.alpha <= 1
        assert step.successful == (prev < params.threshold or step.alpha < prev)
        if step.kernel_size is not None:
            assert step.i > params.i0
            assert prev >= params.threshold
            vertices_before = params.n - step.i + 1
            assert step.kernel_size >= 2 * prev - vertices_before
        prev = step.alpha


def test_kernel_recorded_beyond_the_enumeration_cap():
    # the hub graph at k = 20 has 2^20 maximum independent sets and the hub as its kernel;
    # i0 = 0 and a low threshold record the kernel of the whole graph at step 1
    g = hub_graph(20)
    params = ProcessParams(epsilon=Fraction(1, 12), n=61, i0=0, target_size=58, threshold=Fraction(3))
    trace = run_deletion_process(g, params, seed=1, components=_starting_components(g))
    assert trace.steps[0].kernel_size == 1
    trace_invariants(trace, params)


def test_edgeless_process_every_step_successful():
    n = 10
    g = Graph.empty(n)
    params = ProcessParams.for_graph(n, Fraction(1, 8))
    trace = run_deletion_process(g, params, seed=3, components=_starting_components(g))
    assert len(trace.steps) == n - params.target_size
    assert all(s.successful for s in trace.steps)  # alpha drops every removal
    assert trace.final_alpha == params.target_size
    trace_invariants(trace, params)


def test_g2_trace_invariants_and_determinism():
    params = ProcessParams.for_graph(12, Fraction(1, 12))
    traces = run_deletion_traces(G2, params, 40, seed=5)
    for trace in traces:
        trace_invariants(trace, params)
    again = run_deletion_traces(G2, params, 40, seed=5, workers=2)
    assert traces == again


def test_step_alphas_match_brute_force_on_two_copies():
    # vertex 12c + v of 2 x G_2 is vertex v of copy c
    double = Graph.from_edges(24, [(u + 12 * c, v + 12 * c) for c in (0, 1) for u, v in G2.edges()])
    independent = [m for m in range(1 << 12) if oracle_is_independent(G2, m)]

    def oracle(remaining):
        parts = (remaining & 0xFFF, remaining >> 12)
        return sum(max(m.bit_count() for m in independent if m & ~part == 0) for part in parts)

    params = ProcessParams.for_graph(24, Fraction(1, 12))
    traces = run_deletion_traces(double, params, 10, seed=6)
    assert len(traces) == 10
    for trace in traces:
        assert trace.initial_alpha == 8 == oracle((1 << 24) - 1)
        remaining = (1 << 24) - 1
        for step in trace.steps:
            remaining &= ~(1 << step.removed)
            assert step.alpha == oracle(remaining)
        trace_invariants(trace, params)


def test_success_statistics_g2():
    params = ProcessParams.for_graph(12, Fraction(1, 12))
    traces = run_deletion_traces(G2, params, 60, seed=17)
    stats = success_statistics(traces, params)
    assert len(stats.success_counts) == 60  # one count per trace
    assert stats.implication_violations == 0
    assert stats.frequency_ok
    assert stats.binomial_tail == pytest.approx(1 / 12)
    assert 0.0 <= stats.fraction_final_below <= 1.0


def _fraction_statistics(traces, params):
    """The figures of ``success_statistics`` that compare an alpha with the
    threshold, each compared with the Fraction itself."""
    ceiling = (Fraction(1, 4) + params.epsilon) * params.n
    qualifying = [step for t in traces for step, prev in zip(t.steps, t.alphas_before())
                  if step.i > params.i0 and prev >= params.threshold]
    counts = [sum(s.successful for s in t.steps if s.i > params.i0) for t in traces]
    violations = sum(
        t.initial_alpha <= ceiling and count >= params.required_successes and t.final_alpha > params.threshold
        for t, count in zip(traces, counts)
    )
    below = sum(t.final_alpha < params.threshold for t in traces) / len(traces)
    return len(qualifying), sum(s.successful for s in qualifying), violations, below


@pytest.mark.parametrize("threshold", [Fraction(3), Fraction(5, 2)], ids=["integral", "non-integral"])
def test_statistics_compare_integer_alphas_as_with_the_fraction_threshold(threshold):
    # four triangles: alpha falls from 4 through 3, and at 5/2 a trace that ends at 3 after a success is a violation
    k3 = Graph.complete(3)
    g = disjoint_union(k3, k3, k3, k3)
    params = ProcessParams(epsilon=Fraction(1, 5), n=12, i0=2, target_size=4, threshold=threshold)
    traces = run_deletion_traces(g, params, 40, seed=6)
    for trace in traces:
        trace_invariants(trace, params)
    stats = success_statistics(traces, params)
    figures = (stats.qualifying_steps, stats.qualifying_successes, stats.implication_violations,
               stats.fraction_final_below)
    assert figures == _fraction_statistics(traces, params)
    # both sides of the threshold are met: alpha at 3 qualifies, and some final alpha lies on either side
    assert any(prev == 3 for t in traces for prev in t.alphas_before())
    assert 0 < stats.fraction_final_below < 1
    if threshold == Fraction(5, 2):
        assert stats.implication_violations > 0


def _stalled_trace(steps: int) -> tuple[ProcessTrace, ProcessParams]:
    """One trace whose ``steps`` monitored steps all qualify and none succeeds."""
    params = ProcessParams(
        epsilon=Fraction(1, 12), n=steps + 1, i0=0, target_size=1, threshold=Fraction(1)
    )
    flat = tuple(ProcessStep(i=i, removed=i - 1, alpha=2, successful=False, kernel_size=None)
                 for i in range(1, steps + 1))
    return ProcessTrace(initial_alpha=2, steps=flat), params


@pytest.mark.parametrize("steps, ok", [(4, True), (75, True), (76, False), (200, False)])
def test_frequency_check_is_the_exact_binomial_tail(steps, ok):
    # P[Bin(q, 1/12) = 0] = (11/12)^q: 0.71 at q=4, 0.00147 at q=75, 0.00134 at q=76, 3e-8 at q=200
    trace, params = _stalled_trace(steps)
    stats = success_statistics([trace], params)
    assert (stats.qualifying_steps, stats.qualifying_successes) == (steps, 0)
    assert stats.frequency_ok is ok


def fraction_sum_binomial_tail(n_trials, p, k):
    """P[Bin(n_trials, p) >= k] as a sum of one Fraction per term."""
    if k <= 0:
        return Fraction(1)
    return sum((Fraction(math.comb(n_trials, j)) * p**j * (1 - p) ** (n_trials - j)
                for j in range(k, n_trials + 1)), Fraction(0))


def test_binomial_tail_matches_the_fraction_sum():
    rng = np.random.default_rng(2024)
    cases = []
    for _ in range(300):
        n_trials = int(rng.integers(0, 61))
        cases.append((n_trials, Fraction(int(rng.integers(0, 25)), 24), int(rng.integers(-2, n_trials + 3))))
    assert any(k <= 0 for _, _, k in cases) and any(k > n for n, _, k in cases)
    assert {p for _, p, _ in cases} >= {Fraction(0), Fraction(1)}
    for n_trials, p, k in cases:
        assert _binomial_tail_at_least(n_trials, p, k) == fraction_sum_binomial_tail(n_trials, p, k)


def test_binomial_tail_at_a_thousand_edge_scale():
    # q = 16,700 qualifying steps, 7,554 successes: the frequency check's own call, and the
    # complementary tail, P[Bin(n, p) >= k] + P[Bin(n, 1 - p) >= n - k + 1] = 1 exactly
    n_trials, p, k = 16_700, Fraction(11, 12), 16_700 - 7_554
    tail = _binomial_tail_at_least(n_trials, p, k)
    assert 0 < tail < 1
    assert tail + _binomial_tail_at_least(n_trials, 1 - p, n_trials - k + 1) == 1


def test_success_statistics_edgeless_window_always_full():
    n = 10
    g = Graph.empty(n)
    params = ProcessParams.for_graph(n, Fraction(1, 8))
    traces = run_deletion_traces(g, params, 10, seed=2)
    stats = success_statistics(traces, params)
    assert stats.success_counts == tuple([params.window] * 10)


def test_trace_jsonl_schema(tmp_path):
    params = ProcessParams.for_graph(12, Fraction(1, 12))
    trace = run_deletion_process(G2, params, seed=8, components=_starting_components(G2))
    path = tmp_path / "trace.jsonl"
    export_trace_jsonl(trace, path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(trace.steps)
    for line, step in zip(lines, trace.steps):
        obj = json.loads(line)
        assert obj["i"] == step.i
        assert obj["removed"] == step.removed
        assert obj["alpha"] == step.alpha
        assert obj["success"] == step.successful
        assert ("kernel_size" in obj) == (step.kernel_size is not None)


def rescan_trace(g, params, seed):
    """The deletion process re-solved from scratch: alpha of the whole current
    graph at every step, and its kernel at every monitored step."""
    rng = np.random.default_rng(seed)
    current = (1 << g.n) - 1
    initial_alpha = cur_alpha = alpha_induced(g, current)
    vertices = list(range(g.n))
    steps = []
    for i in range(1, g.n - params.target_size + 1):
        victim = vertices.pop(int(rng.integers(0, len(vertices))))
        kernel_size = None
        if i > params.i0 and cur_alpha >= params.threshold:
            kernel_size = _solve_kernel_corona(g, current)[1].bit_count()
        current &= ~(1 << victim)
        new_alpha = alpha_induced(g, current)
        successful = cur_alpha < params.threshold or new_alpha < cur_alpha
        steps.append(ProcessStep(i, victim, new_alpha, successful, kernel_size))
        cur_alpha = new_alpha
    return ProcessTrace(initial_alpha=initial_alpha, steps=tuple(steps))


def _watch_every_step(n):
    """Removes every vertex and records the kernel before each removal."""
    return ProcessParams(epsilon=Fraction(1, 12), n=n, i0=0, target_size=0, threshold=Fraction(0))


PATH20 = Graph.from_edges(20, [(v, v + 1) for v in range(19)])
PROCESS_GRAPHS = {
    "sparse_gnp_a": random_graph(30, 0.06, 81),
    "sparse_gnp_b": random_graph(24, 0.1, 82),
    "sparse_gnp_c": random_graph(18, 0.15, 83),
    "hub": hub_graph(6),
    "edgeless": Graph.empty(10),
    "complete": Graph.complete(8),
    "star": Graph.from_edges(9, [(0, v) for v in range(1, 9)]),
    "g2": G2,
    "g2x2": disjoint_union(G2, G2),
    "g2x4": disjoint_union(G2, G2, G2, G2),
    # both sides of the table split: the hub (22 vertices) is past the budget;
    # the path alone fills it, and beside G_2 it needs 2^12 + 2^20 cells, so it is searched
    "g2+hub7": disjoint_union(G2, hub_graph(7)),
    "path20": PATH20,
    "path20+g2": disjoint_union(PATH20, G2),
}


@pytest.mark.parametrize("watch", [False, True], ids=["paper_window", "every_step"])
@pytest.mark.parametrize("name", sorted(PROCESS_GRAPHS))
def test_live_components_match_the_rescan(name, watch):
    g = PROCESS_GRAPHS[name]
    params = _watch_every_step(g.n) if watch else ProcessParams.for_graph(g.n, Fraction(1, 12))
    traces = run_deletion_traces(g, params, 4, seed=9)
    assert traces == [rescan_trace(g, params, [9, j]) for j in range(4)]


def test_live_components_match_the_rescan_with_two_workers():
    g = PROCESS_GRAPHS["g2x4"]
    params = _watch_every_step(g.n)
    expected = [rescan_trace(g, params, [4, j]) for j in range(3)]
    assert run_deletion_traces(g, params, 3, seed=4, workers=1) == expected
    assert run_deletion_traces(g, params, 3, seed=4, workers=2) == expected


def test_a_step_solves_only_components_it_has_not_seen(monkeypatch):
    g = disjoint_union(*[hub_graph(7)] * 4)  # every component past the table budget, so all are searched
    params = ProcessParams.for_graph(g.n, Fraction(1, 12))
    start = _starting_components(g)
    solved = []  # (entry point, mask) of every solve in the current trace
    original_witness, original_kernel = mishit.process._solve_witness, mishit.process._solve_kernel_corona

    def witness(g, within_bits):
        solved.append(("witness", within_bits))
        return original_witness(g, within_bits)

    def kernel(g, within_bits):
        solved.append(("kernel", within_bits))
        return original_kernel(g, within_bits)

    monkeypatch.setattr(mishit.process, "_solve_witness", witness)
    monkeypatch.setattr(mishit.process, "_solve_kernel_corona", kernel)
    steps = witness_solves = 0
    for j in range(10):
        solved.clear()
        trace = run_deletion_process(g, params, [3, j], start)
        steps += len(trace.steps)
        witness_solves += sum(name == "witness" for name, _ in solved)
        assert all(_components(g, mask) == [mask] for _, mask in solved)  # one component each
        assert len(set(solved)) == len(solved)  # and each at most once per trace
    assert steps == 440
    assert 0 < witness_solves < steps


# --- the bound --------------------------------------------------------------


def test_bound_values():
    assert alpha_prime_bound(Fraction(1, 12)) == Fraction(143, 432)
    assert alpha_prime_bound(Fraction(1, 5)) == Fraction(1, 4) + Fraction(1, 5) - Fraction(1, 75)
    # approaches 1/4 from above as eps -> 0
    assert abs(alpha_prime_bound(Fraction(1, 10**6)) - Fraction(1, 4)) < Fraction(1, 10**5)
    for bad in (0, Fraction(1, 4), Fraction(-1, 8), Fraction(3, 4)):
        with pytest.raises(ValueError):
            alpha_prime_bound(bad)


def test_verify_bound_rejects_mc_without_interval(tmp_path, capsys):
    estimate = alpha_prime_mc(G2, 1, 1)
    assert estimate.ci95 is None
    # without an interval no verdict on the ceiling can be drawn: the command refuses it
    path = tmp_path / "g2.json"
    save_graph(G2, path)
    with pytest.raises(SystemExit) as exc:
        main(["alpha-prime", "--graph", str(path), "--mode", "mc", "--samples", "1", "--seed", "1"])
    assert exc.value.code == 2
    assert "--samples must be at least 2" in capsys.readouterr().err

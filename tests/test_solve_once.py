"""Each question is solved once: call counts through the solver entry points."""

import json

import pytest

import mishit.cli
import mishit.graph
import mishit.hajnal
import mishit.hitting
import mishit.process
from mishit.cli import main
from mishit.families import HammingSpec, build_hamming_graph, build_shift_graph
from conftest import cycle_graph, disjoint_union, hub_graph
from mishit.graph import _components, alpha, enumerate_mis, save_graph
from mishit.hajnal import kernel_corona


@pytest.fixture
def counted(monkeypatch):
    """Wrap module functions so each call is tallied under its name."""
    calls = {}

    def count(module, name):
        original = getattr(module, name)
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    return calls, count


@pytest.fixture
def g2_file(tmp_path):
    path = tmp_path / "g2.json"
    save_graph(build_shift_graph(2)[0], path)
    return str(path)


def test_enumerate_mis_runs_one_clique_search(counted):
    calls, count = counted
    count(mishit.graph, "_max_clique")
    count(mishit.graph, "_cliques")
    family = enumerate_mis(build_shift_graph(3)[0])
    assert len(family) == 20
    assert calls == {"_max_clique": 0, "_cliques": 1}  # the listing search finds alpha itself


@pytest.mark.parametrize("argv, g", [
    (["shift", "--k", "4"], build_shift_graph(4)[0]),
    (["hamming", "--m", "6", "--t", "1"], build_hamming_graph(HammingSpec(6, 1))),
], ids=["shift-4", "hamming-6-1"])
def test_symmetric_commands_search_only_vertex_0s_non_neighbours(monkeypatch, argv, g):
    starts = []
    search = mishit.graph._cliques

    def recording(rows, start, floor):
        starts.append(start)
        return search(rows, start, floor)

    monkeypatch.setattr(mishit.graph, "_cliques", recording)
    assert main(argv) == 0
    # one listing search, rooted at the n - deg(0) - 1 vertices off vertex 0's closed neighbourhood
    assert [start.bit_count() for start in starts] == [g.n - g.adj[0].bit_count() - 1]


# alpha solves each copy by one max-clique search, and the kernel and corona
# start from that solve.  They add at most one decision search per vertex, and
# the sets those searches find settle most vertices of a copy of G_2
# unsearched: three more per copy, where a kernel search and a corona search
# for every vertex would make 4 + 4 * 2 * 12 = 100.  The MIS enumeration runs
# one listing search per copy and no max-clique search.
@pytest.mark.parametrize(
    "solve, max_cliques, searches",
    [(alpha, 4, 4), (kernel_corona, 4, 16), (enumerate_mis, 0, 4)],
    ids=["alpha", "kernel_corona", "enumerate_mis"],
)
def test_disjoint_copies_run_one_clique_search_each(counted, solve, max_cliques, searches):
    calls, count = counted
    count(mishit.graph, "_max_clique")
    count(mishit.graph, "_cliques")
    g2 = build_shift_graph(2)[0]
    solve(disjoint_union(g2, g2, g2, g2))
    assert calls == {"_max_clique": max_cliques, "_cliques": searches}


def test_hitting_set_command_enumerates_once(counted, g2_file):
    calls, count = counted
    count(mishit.graph, "_max_clique")
    count(mishit.graph, "_cliques")
    assert main(["hitting-set", "--graph", g2_file]) == 0
    # one listing search, so no second enumeration and no separate witness solve
    assert calls == {"_max_clique": 0, "_cliques": 1}


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_alpha_prime_estimates_once(counted, g2_file, mode):
    calls, count = counted
    count(mishit.process, "alpha_prime_exact")
    count(mishit.process, "alpha_prime_mc")
    argv = ["alpha-prime", "--graph", g2_file, "--mode", mode]
    if mode == "mc":
        argv += ["--samples", "600", "--seed", "4"]
    assert main(argv) == 0
    assert calls[f"alpha_prime_{mode}"] == 1
    assert sum(calls.values()) == 1


@pytest.mark.parametrize("mode, tables", [("exact", 2), ("mc", 4)])
def test_alpha_prime_tables_each_component_once(counted, tmp_path, mode, tables):
    calls, count = counted
    count(mishit.process, "_subset_alpha_table")
    g2 = build_shift_graph(2)[0]
    # exact on G_2 plus an 8-cycle, Monte Carlo on four copies of G_2: one table per component
    g = disjoint_union(g2, cycle_graph(8)) if mode == "exact" else disjoint_union(g2, g2, g2, g2)
    path = tmp_path / "g.json"
    save_graph(g, path)
    argv = ["alpha-prime", "--graph", str(path), "--mode", mode]
    if mode == "mc":
        argv += ["--samples", "2000", "--seed", "4"]
    assert main(argv) == 0
    assert calls["_subset_alpha_table"] == tables


@pytest.mark.parametrize("method_args", [
    ["--m", "10", "--t", "1", "--method", "hadamard"],
    ["--m", "4", "--t", "1", "--method", "random", "--trials", "100", "--seed", "5"],
])
def test_covering_code_scans_each_code_once(counted, tmp_path, method_args):
    calls, count = counted
    count(mishit.hitting, "covering_radius")
    out = tmp_path / "r.json"
    assert main(["covering-code", *method_args, "--json", str(out)]) == 0
    trials_used = json.loads(out.read_text())["report"]["trials_used"]
    # one scan per random trial, the accepted one reused for the report; one scan of the Hadamard code
    assert calls["covering_radius"] == (trials_used or 1)


def test_hajnal_corpus_sweeps_each_n_once(counted, tmp_path):
    calls, count = counted
    count(mishit.hajnal, "all_graphs_kernel_stats")
    argv = ["hajnal-corpus", "--max-n", "5", "--random", "10", "--seed", "1", "--csv", str(tmp_path / "r.csv")]
    assert main(argv) == 0
    assert calls["all_graphs_kernel_stats"] == 5  # the check and the CSV share one sweep per n
    assert main(argv) == 0
    assert calls["all_graphs_kernel_stats"] == 10  # and nothing is cached across commands


def _record(monkeypatch, name):
    """Masks handed to ``mishit.process.<name>`` in this process, in call order."""
    seen = []
    original = getattr(mishit.process, name)

    def recording(g, within_bits):
        seen.append(within_bits)
        return original(g, within_bits)

    monkeypatch.setattr(mishit.process, name, recording)
    return seen


def _run_process(tmp_path, g, workers):
    path = tmp_path / "g.json"
    save_graph(g, path)
    argv = ["process", "--graph", str(path), "--traces", "7", "--seed", "3", "--workers", workers]
    assert main(argv) == 0


@pytest.mark.parametrize("workers", ["1", "2"])
def test_process_solves_the_full_graph_once_for_all_traces(counted, monkeypatch, tmp_path, workers):
    calls, count = counted
    count(mishit.cli, "alpha")
    g2 = build_shift_graph(2)[0]
    double = disjoint_union(g2, g2)
    tabled = _record(monkeypatch, "_subset_alpha_table")
    solved = _record(monkeypatch, "_solve_witness")
    _run_process(tmp_path, double, workers)
    # each starting component's subset table is built once, in this process, for every
    # trace, and the traces answer from the tables without a witness solve
    assert [tabled.count(comp) for comp in _components(double, (1 << 24) - 1)] == [1, 1]
    assert solved == []
    assert calls == {"alpha": 1}  # and alpha(G) once more for eps in the CLI


@pytest.mark.parametrize("workers", ["1", "2"])
def test_process_solves_each_untabled_component_once_for_all_traces(counted, monkeypatch, tmp_path, workers):
    calls, count = counted
    count(mishit.cli, "alpha")
    g = disjoint_union(build_shift_graph(2)[0], hub_graph(7))  # 12 + 22 vertices: the hub is past the table budget
    g2_part, hub_part = _components(g, (1 << g.n) - 1)
    tabled = _record(monkeypatch, "_subset_alpha_table")
    solved = _record(monkeypatch, "_solve_witness")
    _run_process(tmp_path, g, workers)
    assert tabled == [g2_part]
    # the untabled component is solved once, in this process, for every trace;
    # a trace solves only strict parts of it
    assert solved.count(hub_part) == 1
    assert all(mask & ~hub_part == 0 for mask in solved)
    assert calls == {"alpha": 1}

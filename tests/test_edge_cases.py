"""Edge paths: degenerate graphs, codes with prefixes beyond the scan range, families above the cap."""

import json

import numpy as np
import pytest

import mishit.graph
from mishit.cli import main
from mishit.families import HammingSpec
from mishit.graph import Graph, MisFamily, VertexSet, _solve_kernel_corona, enumerate_mis, save_graph
from mishit.hitting import (
    InfeasibleFamilyError,
    build_random_covering_code,
    h_of_graph,
    min_hitting_set,
)


def test_h_of_zero_vertex_graph_is_infeasible():
    # the unique maximum independent set is empty, so nothing can hit it
    with pytest.raises(InfeasibleFamilyError):
        h_of_graph(Graph.empty(0))


def test_min_hitting_set_accepts_mis_family():
    family = enumerate_mis(Graph.complete(4))
    r = min_hitting_set(family)
    assert len(r) == 4


def test_family_above_the_cap_is_refused(tmp_path, capsys, monkeypatch):
    # K_5 has five maximum independent sets; above a cap of 3 the command refuses, never truncates
    monkeypatch.setattr(mishit.graph, "DEFAULT_MIS_CAP", 3)
    path = tmp_path / "k5.json"
    save_graph(Graph.complete(5), path)
    with pytest.raises(SystemExit) as exc:
        main(["hitting-set", "--graph", str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "mishit: error: more than 3 maximum independent sets; use a structural family\n"


def test_duplicate_members_rejected_by_family_type():
    s = VertexSet(3, 0b1)
    with pytest.raises(ValueError):
        MisFamily(alpha=1, sets=(s, s))


def test_kernel_corona_of_empty_restriction():
    assert _solve_kernel_corona(Graph.complete(4), 0) == (0, 0, 0)


def test_random_code_refused_beyond_scan_range(monkeypatch):
    # a trial is accepted by its scanned radius, and at t = 3 the 36-bit
    # prefix is too long to scan; refused before any prefix is drawn
    monkeypatch.setattr(np.random, "default_rng", None)
    with pytest.raises(ValueError, match="4t\\^2 <= 24, got 36"):
        build_random_covering_code(HammingSpec(36, 3), trials=5, rng_seed=11)


def test_cli_random_code_beyond_scan_range_is_refused(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", None)
    out = tmp_path / "r.json"
    code = tmp_path / "code.txt"
    with pytest.raises(SystemExit) as exc:
        main([
            "covering-code", "--m", "40", "--t", "3", "--method", "random",
            "--trials", "2", "--seed", "9", "--json", str(out), "--out", str(code),
        ])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "mishit: error: the random method scans every trial's prefix, which needs 4t^2 <= 24, got 36\n"
    )
    assert not out.exists() and not code.exists()


def test_cli_hadamard_code_beyond_scan_range_is_unchecked(tmp_path):
    # at t = 3 the Hadamard prefix has 64 bits, too long to scan
    out = tmp_path / "r.json"
    assert main(["covering-code", "--m", "64", "--t", "3", "--method", "hadamard", "--json", str(out)]) == 0
    assert json.loads(out.read_text())["report"] == {
        "m": 64, "t": 3, "method": "hadamard", "code_size": 128, "target_radius": 29,
        "trials_used": None, "covering_radius": None,
    }


def test_cli_process_rejects_unusable_epsilon(tmp_path):
    path = tmp_path / "edgeless.json"
    save_graph(Graph.empty(8), path)
    with pytest.raises(SystemExit):
        main(["process", "--graph", str(path), "--traces", "2", "--seed", "1"])
    # an explicit override brings it into range
    assert main([
        "process", "--graph", str(path), "--epsilon", "1/8",
        "--traces", "2", "--seed", "1",
    ]) == 0

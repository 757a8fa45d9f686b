"""Command-line behaviour: reports, artifacts, exit codes, reproducibility."""

import hashlib
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mishit.cli
import mishit.families
import mishit.hajnal
import mishit.hitting
import mishit.process
from conftest import cycle_graph, disjoint_union
from mishit.cli import main
from mishit.families import HAMMING_MAX_M, HammingSpec, build_shift_graph
from mishit.graph import EXACT_MAX_N, Graph, save_graph


@pytest.fixture
def g2_file(tmp_path):
    g, _ = build_shift_graph(2)
    path = tmp_path / "g2.json"
    save_graph(g, path)
    return str(path)


def test_shift_k2(tmp_path, capsys):
    out = tmp_path / "r.json"
    csv_out = tmp_path / "r.csv"
    assert main(["shift", "--k", "2", "--json", str(out), "--csv", str(csv_out)]) == 0
    printed = capsys.readouterr().out
    assert "h: 3" in printed and "[FAIL]" not in printed
    payload = json.loads(out.read_text())
    assert payload["report"]["alpha"] == 4
    assert payload["report"]["mis_count"] == 6
    assert payload["config"]["k"] == 2
    assert all(payload["checks"].values())
    assert csv_out.read_text().splitlines()[1].startswith("2,12,4,6,3")


def test_shift_exports(tmp_path):
    graph_out = tmp_path / "g.json"
    family_out = tmp_path / "family.json"
    assert main(["shift", "--k", "2", "--graph-out", str(graph_out),
                 "--family-out", str(family_out)]) == 0
    from mishit.graph import load_graph
    g = load_graph(graph_out)
    assert g.n == 12 and g.num_edges() == 30
    family = json.loads(family_out.read_text())
    assert len(family) == 6
    assert all(arr == sorted(arr) and len(arr) == 4 for arr in family)


def test_hamming_exports(tmp_path):
    family_out = tmp_path / "family.json"
    assert main(["hamming", "--m", "4", "--t", "1", "--family-out", str(family_out)]) == 0
    family = json.loads(family_out.read_text())
    assert len(family) == 16
    assert all(len(arr) == 5 for arr in family)


def test_shift_k3(tmp_path, capsys):
    csv_out = tmp_path / "r.csv"
    assert main(["shift", "--k", "3", "--csv", str(csv_out)]) == 0
    printed = capsys.readouterr().out
    assert "n: 30" in printed and "alpha: 9" in printed
    assert "mis_count: 20" in printed and "h: 4" in printed
    # sha256 as the CSV row listing each value beside the report wrote it
    assert hashlib.sha256(csv_out.read_bytes()).hexdigest() == (
        "2f4fc1a56527afd7e7a1b524ac7d7a59bb367e47a981e93ad2f962e9b524f986"
    )


def test_shift_k4_passes_every_check(capsys):
    # n = 56 < 4 * 5^2, so h = 5 exceeds sqrt(n)/2
    assert main(["shift", "--k", "4"]) == 0
    assert "[FAIL]" not in capsys.readouterr().out


def test_shift_k5_passes_every_check(cli_json):
    code, raw, _ = cli_json("shift", "--k", "5")
    assert code == 0
    payload = json.loads(raw)
    assert all(payload["checks"].values())
    assert (payload["report"]["h"], payload["report"]["mis_count"]) == (6, 252)


@pytest.mark.parametrize("argv, digest", [
    (["shift", "--k", "4"], "da30c5ad91823829a5f360dd0ec24d82aebf3bffffe901aca0e67ec2c44ef7e8"),
    (["shift", "--k", "5"], "a03cc4771684b9360e3a78606cd987d9373cc48b4ab432975844fc879e725a53"),
    (["hamming", "--m", "6", "--t", "2"], "76ec5481250ef5455377eafb533fcb6303005a4088152314bd64eb8e3ef3e5e2"),
], ids=["shift-4", "shift-5", "hamming-6-2"])
def test_exact_h_json_bytes(cli_json, argv, digest):
    # sha256 as the lexicographic search run at every budget from 1 to h wrote them
    code, raw, _ = cli_json(*argv)
    assert code == 0
    assert hashlib.sha256(raw).hexdigest() == digest


def test_shift_rejects_bad_k(capsys):
    assert "--k" in _assert_one_line_error(capsys, ["shift", "--k", "0"])
    assert "k 5" in _assert_one_line_error(capsys, ["shift", "--k", "7"])


def test_hamming_4_1(tmp_path):
    out = tmp_path / "r.json"
    assert main(["hamming", "--m", "4", "--t", "1", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["kleitman_alpha"] == 5
    assert payload["report"]["alpha_exact"] == 5
    assert payload["report"]["h_exact"] == 4
    assert payload["report"]["min_code_size"] == 4


def test_hamming_8_1(tmp_path):
    out = tmp_path / "r.json"
    assert main(["hamming", "--m", "8", "--t", "1", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["hadamard_code_size"] == 16
    assert payload["report"]["hadamard_radius"] <= 3


@pytest.mark.parametrize("flag", ["--graph-out", "--family-out"])
def test_hamming_export_above_m12_is_a_one_line_error(tmp_path, capsys, flag):
    argv = ["hamming", "--m", "14", "--t", "1", flag, str(tmp_path / "out.json")]
    assert "m <= 12" in _assert_one_line_error(capsys, argv)
    assert not (tmp_path / "out.json").exists()


# K(m, r), the least size of a binary code of length m and covering radius r
# (Cohen, Honkala, Litsyn & Lobstein, "Covering Codes", 1997); r = 0 needs every word
LEAST_COVERING_CODE = {(2, 0): 4, (4, 0): 16, (4, 1): 4, (6, 0): 64, (6, 1): 12, (6, 2): 4}


@pytest.mark.parametrize("m,t", [(m, t) for m in (2, 4, 6) for t in range(1, m // 2 + 1)])
def test_hamming_passes_every_check_at_every_t(cli_json, m, t):
    # 4t^2 <= m is the code builders' rule, not the graph's: at every t the
    # balls are the whole MIS family and h is the least covering code
    code, raw, _ = cli_json("hamming", "--m", str(m), "--t", str(t))
    assert code == 0
    payload = json.loads(raw)
    assert payload["checks"]["MIS family is exactly the 2^m balls"] is True
    assert all(payload["checks"].values())
    assert payload["report"]["h_exact"] == LEAST_COVERING_CODE[m, m // 2 - t]


def test_hamming_has_no_force_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hamming", "--m", "6", "--t", "3", "--force"])
    assert exc.value.code == 2
    assert "--force" in capsys.readouterr().err


@pytest.mark.parametrize("m", [HAMMING_MAX_M + 1, HAMMING_MAX_M + 2])
def test_hamming_above_the_m_cap_is_refused_before_any_work(capsys, monkeypatch, m):
    # 2^m above the cap has too many digits to print; the spec refuses it first
    monkeypatch.setattr(mishit.families, "kleitman_alpha", None)
    with pytest.raises(SystemExit) as exc:
        main(["hamming", "--m", str(m), "--t", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"mishit: error: m must be an even integer from 2 to 4096, got {m}\n"


def test_hajnal_corpus(tmp_path):
    out = tmp_path / "r.json"
    csv_out = tmp_path / "rows.csv"
    code = main([
        "hajnal-corpus", "--max-n", "5", "--random", "40", "--seed", "2",
        "--json", str(out), "--csv", str(csv_out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["exhaustive_violations"] == 0
    assert payload["report"]["random_violations"] == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "graph_id,n,alpha,kernel_size,corona_size"
    assert len(lines) == 1 + (1 + 2 + 8 + 64 + 1024) + 40


def test_hajnal_corpus_csv_bytes(tmp_path):
    base = ["hajnal-corpus", "--max-n", "5", "--random", "40", "--seed", "2"]
    one, two = tmp_path / "w1.csv", tmp_path / "w2.csv"
    assert main(base + ["--workers", "1", "--csv", str(one)]) == 0
    assert main(base + ["--workers", "2", "--csv", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()
    # sha256 of this file with its random rows as csv.writer writes the
    # per-graph clique-search rows of the chunked draw
    assert hashlib.sha256(one.read_bytes()).hexdigest() == (
        "304c569f5d01ca5abc91ea3c955cf8d7838db884e8076a928312fdaf44bcf56a"
    )


def test_hajnal_corpus_artifact_bytes_at_max_n7(tmp_path):
    out, csv_out = tmp_path / "r.json", tmp_path / "rows.csv"
    assert main([
        "hajnal-corpus", "--max-n", "7", "--random", "200", "--seed", "3", "--workers", "1",
        "--json", str(out), "--csv", str(csv_out),
    ]) == 0
    # sha256 digests: the JSON as the per-line formatting writer wrote it, the
    # CSV with its random rows as the per-graph clique search answers the
    # chunked draw
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "20e5d157e0b0a673d32b674bec50b0880a3768aa72dfee80c1ca447b04b8584c"
    )
    assert hashlib.sha256(csv_out.read_bytes()).hexdigest() == (
        "095e5da15cb5539f056bef3fa5d7273c967567105db656062a874831233b360f"
    )


def test_hajnal_corpus_csv_bytes_at_a_seed_past_2_to_the_64_up_to_20_vertices(tmp_path):
    csv_out = tmp_path / "rows.csv"
    assert main([
        "hajnal-corpus", "--max-n", "3", "--random", "5000", "--seed", str(2**70 + 3), "--n-max", "20",
        "--csv", str(csv_out),
    ]) == 0
    # sha256 with the random rows as the per-graph clique search answers the
    # chunked draw (md5 35639c55e133485b429cda7dc9d6c1b7)
    assert hashlib.sha256(csv_out.read_bytes()).hexdigest() == (
        "5070f88d5acacaaa36396046e586b932f788fc3f592de078fd90632ee48290ca"
    )


def test_hajnal_corpus_random_requires_seed(capsys):
    assert "--seed" in _assert_one_line_error(capsys, ["hajnal-corpus", "--max-n", "3", "--random", "5"])


def test_alpha_prime_exact(g2_file, capsys):
    assert main(["alpha-prime", "--graph", g2_file, "--mode", "exact"]) == 0
    printed = capsys.readouterr().out
    assert "6359/24576" in printed
    assert "bound_holds_at_this_n: True" in printed


def test_alpha_prime_mc_requires_seed(g2_file, capsys):
    assert "--seed" in _assert_one_line_error(capsys, ["alpha-prime", "--graph", g2_file, "--mode", "mc"])


@pytest.mark.parametrize("value", ["0", "-5"])
def test_alpha_prime_rejects_samples_below_one(g2_file, capsys, monkeypatch, value):
    # refused before the graph is loaded or any sample drawn
    monkeypatch.setattr(mishit.cli, "load_graph", None)
    monkeypatch.setattr(mishit.process, "alpha_prime_mc", None)
    argv = ["alpha-prime", "--graph", g2_file, "--mode", "mc", "--samples", value, "--seed", "1"]
    assert "--samples" in _assert_one_line_error(capsys, argv)


def test_process_report_and_artifacts(g2_file, tmp_path):
    out = tmp_path / "r.json"
    csv_out = tmp_path / "t.csv"
    jsonl = tmp_path / "t.jsonl"
    code = main([
        "process", "--graph", g2_file, "--traces", "25", "--seed", "5",
        "--json", str(out), "--csv", str(csv_out), "--trace-jsonl", str(jsonl),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["epsilon"] == "1/12"
    assert payload["report"]["stats"]["implication_violations"] == 0
    assert len(csv_out.read_text().splitlines()) == 26
    assert all(json.loads(line)["i"] >= 1 for line in jsonl.read_text().splitlines())


def test_process_target_size(g2_file, tmp_path, capsys, monkeypatch):
    seen = []  # the traces success_statistics receives

    def spy(traces, params):
        seen.extend(traces)
        return statistics(traces, params)

    statistics = mishit.process.success_statistics
    monkeypatch.setattr(mishit.process, "success_statistics", spy)
    jsonl = tmp_path / "t.jsonl"
    argv = ["process", "--graph", g2_file, "--traces", "3", "--seed", "1", "--target-size", "4"]
    assert main(argv + ["--trace-jsonl", str(jsonl)]) == 0
    assert "target_size: 4" in capsys.readouterr().out.splitlines()
    # 12 vertices down to 4: eight steps in every trace
    assert [len(t.steps) for t in seen] == [8, 8, 8]
    assert [json.loads(line)["i"] for line in jsonl.read_text().splitlines()] == list(range(1, 9))


@pytest.mark.parametrize("size", ["12", "-1"])
def test_process_rejects_target_size_out_of_range(g2_file, capsys, size):
    argv = ["process", "--graph", g2_file, "--traces", "3", "--seed", "1", "--target-size", size]
    assert "target size" in _assert_one_line_error(capsys, argv)


def test_process_requires_seed(g2_file, capsys):
    assert "--seed" in _assert_one_line_error(capsys, ["process", "--graph", g2_file, "--traces", "2"])


def test_process_rejects_zero_traces(g2_file, capsys, monkeypatch):
    # refused before the graph is loaded or solved
    monkeypatch.setattr(mishit.cli, "load_graph", None)
    argv = ["process", "--graph", g2_file, "--traces", "0", "--seed", "1"]
    assert "--traces" in _assert_one_line_error(capsys, argv)


@pytest.mark.parametrize("epsilon", ["1/0", "one"])
def test_process_rejects_unparsable_epsilon(g2_file, capsys, monkeypatch, epsilon):
    # refused before the graph is loaded or solved
    monkeypatch.setattr(mishit.cli, "load_graph", None)
    argv = ["process", "--graph", g2_file, "--epsilon", epsilon, "--traces", "2", "--seed", "1"]
    assert "--epsilon" in _assert_one_line_error(capsys, argv)


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command", ["process", "alpha-prime", "hajnal-corpus"])
def test_workers_below_one_rejected(g2_file, capsys, monkeypatch, command, value):
    # refused before any graph is loaded or built
    monkeypatch.setattr(mishit.cli, "load_graph", None)
    monkeypatch.setattr(mishit.hajnal, "exhaustive_corpus_check", None)
    argv = {
        "process": ["process", "--graph", g2_file, "--traces", "5"],
        "alpha-prime": ["alpha-prime", "--graph", g2_file, "--mode", "mc", "--samples", "600"],
        "hajnal-corpus": ["hajnal-corpus", "--max-n", "3", "--random", "5"],
    }[command]
    assert "--workers" in _assert_one_line_error(capsys, argv + ["--seed", "1", "--workers", value])


@pytest.mark.parametrize("workers", ["1", "2"])
def test_process_artifact_bytes(g2_file, tmp_path, capsys, workers):
    csv_out, jsonl, out = tmp_path / "t.csv", tmp_path / "t.jsonl", tmp_path / "r.json"
    assert main([
        "process", "--graph", g2_file, "--traces", "25", "--seed", "5", "--workers", workers,
        "--csv", str(csv_out), "--trace-jsonl", str(jsonl), "--json", str(out),
    ]) == 0
    # sha256 digests as the per-trace-solve implementation wrote them; the JSON file's
    # config holds the tmp path, so only its report is pinned
    report = json.dumps(json.loads(out.read_text())["report"], sort_keys=True).encode()
    assert hashlib.sha256(csv_out.read_bytes()).hexdigest() == (
        "f7abccee4d9593701f07239d944d9ac5b90989bf5035f585831d620e5aa2a21b"
    )
    assert hashlib.sha256(jsonl.read_bytes()).hexdigest() == (
        "ec6cfcb523d6e76b0700785cd213a4cdecf7e7e4f6d87e3d44609ac827177371"
    )
    assert hashlib.sha256(report).hexdigest() == (
        "dbaed7b0563c1ae2ff233bd34a403f58edf781c9c36bb9b66fc92dfb825da75b"
    )
    # stdout prints the stats keys in their written order, which the sorted report above does not pin
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "c10d93c16465e267bde91e374460b7330f46bf2ec11de6133d1fed42ae41df44"
    )


def test_process_artifact_bytes_on_four_copies(tmp_path):
    g2 = build_shift_graph(2)[0]
    graph = tmp_path / "g2x4.json"
    save_graph(disjoint_union(g2, g2, g2, g2), graph)
    csv_out, jsonl, out = tmp_path / "t.csv", tmp_path / "t.jsonl", tmp_path / "r.json"
    assert main([
        "process", "--graph", str(graph), "--traces", "5", "--seed", "3",
        "--csv", str(csv_out), "--trace-jsonl", str(jsonl), "--json", str(out),
    ]) == 0
    # sha256 digests as the whole-graph solver wrote them, before solves split by component
    report = json.dumps(json.loads(out.read_text())["report"], sort_keys=True).encode()
    assert hashlib.sha256(csv_out.read_bytes()).hexdigest() == (
        "8a5475ddb5e7df5f18c4d797dc492d22ba5db73e91cdd9ea404cb00ecff00cba"
    )
    assert hashlib.sha256(jsonl.read_bytes()).hexdigest() == (
        "4490afd5865d8324b1a0b604b09aa30dad73bdcdfa3f36ea44b8d616b7c4f048"
    )
    assert hashlib.sha256(report).hexdigest() == (
        "446d3780d636e7301f8c065ccf99a43a2b189457e624b37eedfdf3334aba4e16"
    )


def test_process_zero_successes_on_few_steps_passes(tmp_path, capsys):
    # seed 22 gives 4 qualifying steps and no success, an outcome of probability (11/12)^4 = 0.71
    g2 = build_shift_graph(2)[0]
    graph, out = tmp_path / "g2x4.json", tmp_path / "r.json"
    save_graph(disjoint_union(g2, g2, g2, g2), graph)
    assert main(["process", "--graph", str(graph), "--traces", "5", "--seed", "22", "--json", str(out)]) == 0
    stats = json.loads(out.read_text())["report"]["stats"]
    assert (stats["qualifying_steps"], stats["qualifying_successes"]) == (4, 0)
    assert "[FAIL]" not in capsys.readouterr().out


def test_alpha_prime_exact_on_two_components(tmp_path):
    graph, out = tmp_path / "g2c8.json", tmp_path / "r.json"
    save_graph(disjoint_union(build_shift_graph(2)[0], cycle_graph(8)), graph)
    assert main(["alpha-prime", "--graph", str(graph), "--mode", "exact", "--json", str(out)]) == 0
    assert json.loads(out.read_text())["report"]["estimate"]["mean_fraction"] == "11831/40960"


def _alpha_prime_run(tmp_path, capsys, graph, *argv):
    """stdout and the JSON payload of one alpha-prime run on ``graph``, with the
    graph path (a tmp path) left out of the payload's config."""
    path, out = tmp_path / "graph.json", tmp_path / "r.json"
    save_graph(graph, path)
    capsys.readouterr()
    assert main(["alpha-prime", "--graph", str(path), *argv, "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    del payload["config"]["graph"]
    return capsys.readouterr().out, payload


G2_GRAPH = build_shift_graph(2)[0]


@pytest.mark.parametrize("graph, argv, stdout_digest, json_digest", [
    pytest.param(
        disjoint_union(G2_GRAPH, cycle_graph(8)), ["--mode", "exact"],
        "f7cbf3c1435a5db6362d621207f6ee051ff3b0383c3ab82be3ebe59da72028be", "20f9d127b1d2a789cf0b36498c32d3e39e05214bebf19b925b4df2ec3a9a8bd4", id="exact-g2-c8",
    ),
    pytest.param(
        disjoint_union(G2_GRAPH, G2_GRAPH), ["--mode", "mc", "--samples", "3000", "--seed", "4"],
        "c0544317476a40d8c0aade5cee0c50c391588bbf09075d42af96e50a36df25b9", "4ef1a057833eb6139e6a007e5f79f6afac6befcae39050433eb51ac59c3711e7", id="mc-g2x2",
    ),
    pytest.param(
        Graph.complete(5), ["--mode", "exact"], "615c17a3c11bced16d48c4e1265362312f327f738b2408fd905b2df493669827", "fc4742393e927a3e6ed38ca1eff14948f660ee1d5fcb1adb256bbfb6166a9622", id="out-of-range-k5",
    ),
])
def test_alpha_prime_bytes(tmp_path, capsys, graph, argv, stdout_digest, json_digest):
    # sha256 digests as the report built from BoundCheckReport wrote them
    printed, payload = _alpha_prime_run(tmp_path, capsys, graph, *argv)
    assert hashlib.sha256(printed.encode()).hexdigest() == stdout_digest
    assert hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest() == json_digest


def test_alpha_prime_bound_on_g2_exact(tmp_path, capsys):
    _, payload = _alpha_prime_run(tmp_path, capsys, G2_GRAPH, "--mode", "exact")
    bound = payload["report"]["bound"]
    assert (bound["epsilon"], bound["bound"]) == ("1/12", "143/432")
    assert bound["estimate"]["mean_fraction"] == "6359/24576"
    assert bound["holds"] and not bound["statistical"]
    assert payload["report"]["bound_holds_at_this_n"]


def test_alpha_prime_bound_on_g2_mc_is_statistical(tmp_path, capsys):
    _, payload = _alpha_prime_run(tmp_path, capsys, G2_GRAPH, "--mode", "mc", "--samples", "4000", "--seed", "12")
    bound = payload["report"]["bound"]
    assert bound["statistical"]
    assert bound["holds"]  # CI upper end is far below 143/432


@pytest.mark.parametrize("upper, holds", [(0.33, True), (0.34, False)])
def test_alpha_prime_mc_verdict_reads_the_upper_end_of_the_interval(tmp_path, capsys, monkeypatch, upper, holds):
    # G_2's bound is 143/432 = 0.3310...; both intervals start below it
    estimate = mishit.process.AlphaPrimeEstimate(mean=0.32, exact=False, samples=2, stderr=0.005, ci95=(0.31, upper))
    monkeypatch.setattr(mishit.process, "alpha_prime_mc", lambda *args, **kwargs: estimate)
    _, payload = _alpha_prime_run(tmp_path, capsys, G2_GRAPH, "--mode", "mc", "--samples", "2", "--seed", "1")
    assert payload["report"]["bound"]["holds"] is holds
    assert payload["report"]["bound_holds_at_this_n"] is holds


@pytest.mark.parametrize("mode, mean, ok", [
    ("mc", 1 / 3, True), ("mc", 1 / 3 + 1e-13, False),
    ("exact", Fraction(1, 3), True), ("exact", Fraction(1, 3) + Fraction(1, 10**13), False),
], ids=["mc-at", "mc-above", "exact-at", "exact-above"])
def test_alpha_prime_at_most_alpha_over_n_has_no_slack(tmp_path, capsys, monkeypatch, mode, mean, ok):
    # G_2 has alpha/n = 4/12: an estimate of exactly 1/3 passes, one 10^-13 above it fails
    if mode == "exact":
        estimator, estimate = "alpha_prime_exact", mishit.process.AlphaPrimeEstimate(mean=mean, exact=True)
    else:
        estimator = "alpha_prime_mc"
        estimate = mishit.process.AlphaPrimeEstimate(mean=mean, exact=False, samples=2, stderr=0.005,
                                                     ci95=(mean - 0.01, mean + 0.01))
    monkeypatch.setattr(mishit.process, estimator, lambda *args, **kwargs: estimate)
    path, out = tmp_path / "graph.json", tmp_path / "r.json"
    save_graph(G2_GRAPH, path)
    argv = ["alpha-prime", "--graph", str(path), "--mode", mode, "--samples", "2", "--seed", "1", "--json", str(out)]
    assert main(argv) == (0 if ok else 1)
    assert json.loads(out.read_text())["checks"]["alpha' at most alpha/n"] is ok


@pytest.mark.parametrize("graph", [Graph.empty(6), Graph.complete(5)], ids=["edgeless", "k5"])
def test_alpha_prime_bound_is_none_outside_its_range(tmp_path, capsys, graph):
    # alpha/n = 1 and 1/5
    printed, payload = _alpha_prime_run(tmp_path, capsys, graph, "--mode", "exact")
    assert payload["report"]["bound"] is None
    assert "bound_holds_at_this_n" not in payload["report"]
    assert "ceiling not applicable" in printed


def test_alpha_prime_double_copy_keeps_epsilon(tmp_path, capsys):
    _, payload = _alpha_prime_run(
        tmp_path, capsys, disjoint_union(G2_GRAPH, G2_GRAPH), "--mode", "mc", "--samples", "400", "--seed", "3"
    )
    bound = payload["report"]["bound"]
    assert bound["alpha"] == 8
    assert (bound["epsilon"], bound["bound"]) == ("1/12", "143/432")


def test_process_epsilon_override(g2_file, tmp_path):
    out = tmp_path / "r.json"
    assert main([
        "process", "--graph", g2_file, "--epsilon", "1/6", "--traces", "5",
        "--seed", "1", "--json", str(out),
    ]) == 0
    assert json.loads(out.read_text())["report"]["epsilon"] == "1/6"


def test_process_flags_at_an_integral_threshold(tmp_path):
    # eps = 1/6 on 72 vertices puts the threshold at (1/4 + 1/6 - 1/72) * 72 = 29 exactly;
    # a perfect matching's alpha 36 drops by one per pair deleted whole, down through 29
    graph = tmp_path / "m.json"
    save_graph(Graph.from_edges(72, [(2 * i, 2 * i + 1) for i in range(36)]), graph)
    out, rows = tmp_path / "r.json", tmp_path / "r.csv"
    assert main(["process", "--graph", str(graph), "--epsilon", "1/6", "--traces", "40", "--seed", "3",
                 "--json", str(out), "--csv", str(rows)]) == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["threshold"] == "29"
    assert all(payload["checks"].values())
    _, *lines = rows.read_text().splitlines()
    finals = [(int(line.split(",")[2]), line.split(",")[3]) for line in lines]
    assert all(below == str(alpha < 29) for alpha, below in finals)
    assert {alpha for alpha, _ in finals} >= {28, 29, 30}  # the threshold and both sides of it


def test_covering_code_hadamard(tmp_path):
    out = tmp_path / "code.txt"
    assert main(["covering-code", "--m", "10", "--t", "1", "--method", "hadamard", "--out", str(out)]) == 0
    header, *words = out.read_text().splitlines()
    assert header == "m=10 t=1"
    assert len(words) == 16 and all(len(w) == 10 for w in words)
    built = mishit.hitting.build_hadamard_covering_code(HammingSpec(10, 1))
    assert tuple(int(w[::-1], 2) for w in words) == built.words
    # sha256 as the builder appending each suffix in place wrote it
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "1e623a5218682487c8249b95a1b7aa0ca154b4507c71bdb6b57531f994150c75"
    )


def test_covering_code_random_seeded(tmp_path):
    r1 = tmp_path / "c1.json"
    r2 = tmp_path / "c2.json"
    base = ["covering-code", "--m", "4", "--t", "1", "--method", "random", "--trials", "60"]
    code = tmp_path / "code.txt"
    assert main(base + ["--seed", "3", "--json", str(r1), "--out", str(code)]) == 0
    assert main(base + ["--seed", "3", "--json", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    # sha256 as the builder appending each suffix in place wrote it
    assert hashlib.sha256(code.read_bytes()).hexdigest() == (
        "049d99fe231059857862666fcb16ba806387acd2c7488e0881afa4593d9272c5"
    )


def test_multi_chunk_scan_artifacts(tmp_path):
    # sha256 as the scan of the whole word space, 2^22 and 2^24 words in
    # chunks, wrote them; the prefix scan must write the same bytes
    r = tmp_path / "r.json"
    code = tmp_path / "code.txt"
    assert main(["covering-code", "--m", "22", "--t", "2", "--method", "random", "--trials", "5",
                 "--seed", "1", "--json", str(r), "--out", str(code)]) == 0
    assert hashlib.sha256(r.read_bytes()).hexdigest() == (
        "c46f661b16f3271361528e59fc2969e0bf57f43966e2b709bdc636dbc89a57fc"
    )
    assert hashlib.sha256(code.read_bytes()).hexdigest() == (
        "1f5de0ca539b07d1fc3e7bfc9e81beead9a0cb8346780bb39ee63e14b33da117"
    )
    h = tmp_path / "h.json"
    assert main(["hamming", "--m", "24", "--t", "2", "--json", str(h)]) == 0
    assert hashlib.sha256(h.read_bytes()).hexdigest() == (
        "f24f09cc85fbdf86603f5007dc5da0933a5a4b042b3b1461aa5cae88889e9e62"
    )


@pytest.mark.parametrize("m", [30, 4096])
def test_covering_code_hadamard_radius_beyond_m28(tmp_path, m):
    # at t = 2 only the 16-bit prefix is scanned: rho(P) = 6, plus (m - 16)/2
    # from the repetition suffix, is the target m/2 - 2 at every m
    out = tmp_path / "r.json"
    assert main(["covering-code", "--m", str(m), "--t", "2", "--method", "hadamard", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert (payload["report"]["covering_radius"], payload["report"]["far_point"]) == (m // 2 - 2, None)
    assert all(payload["checks"].values())


def test_covering_code_far_point_check_fails_on_a_near_word(tmp_path, monkeypatch):
    # a scan claiming a codeword is far: the radius and the far point agree
    # with each other, so only the direct distance test can catch it
    monkeypatch.setattr(mishit.hitting, "covering_radius", lambda code: (code.target_radius + 1, code.words[0]))
    out = tmp_path / "r.json"
    assert main(["covering-code", "--m", "10", "--t", "1", "--method", "hadamard", "--json", str(out)]) == 1
    assert json.loads(out.read_text())["checks"]["far point exists iff radius exceeds target"] is False


def test_covering_code_random_beyond_m28(tmp_path):
    out = tmp_path / "r.json"
    argv = ["covering-code", "--m", "30", "--t", "2", "--method", "random", "--trials", "5", "--seed", "1"]
    assert main(argv + ["--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["trials_used"] is not None
    assert payload["report"]["covering_radius"] <= 13
    assert all(payload["checks"].values())


def test_hamming_reports_hadamard_radius_beyond_m28(tmp_path):
    out = tmp_path / "r.json"
    assert main(["hamming", "--m", "30", "--t", "2", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["hadamard_radius"] == 13
    assert payload["checks"] == {"Hadamard code covers at radius m/2 - t": True}


def test_covering_code_random_failure_reports_and_writes_json(tmp_path, capsys):
    # one prefix per trial never covers Z_2^4 at radius 1
    out = tmp_path / "r.json"
    code = tmp_path / "code.txt"
    argv = ["covering-code", "--m", "4", "--t", "1", "--method", "random", "--trials", "3", "--seed", "5",
            "--count", "1", "--json", str(out), "--out", str(code)]
    assert main(argv) == 1
    printed = capsys.readouterr().out
    assert "code_size: None" in printed and "trials_used: 3" in printed
    assert printed.count("[FAIL]") == 1
    payload = json.loads(out.read_text())
    assert payload["report"]["code_size"] is None and payload["report"]["trials_used"] == 3
    assert list(payload["checks"].values()) == [False]
    assert not code.exists()


def test_covering_code_has_no_force_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["covering-code", "--m", "6", "--t", "2", "--method", "hadamard", "--force"])
    assert exc.value.code == 2
    assert "--force" in capsys.readouterr().err


@pytest.mark.parametrize("method,message", [
    ("hadamard", "m=6 is below the Hadamard prefix order 16"),
    ("random", "prefix length 4t^2=16 exceeds m=6"),
])
def test_covering_code_prints_its_builders_refusal(capsys, method, message):
    argv = ["covering-code", "--m", "6", "--t", "2", "--method", method, "--seed", "1"]
    assert _assert_one_line_error(capsys, argv) == f"mishit: error: {message}\n"


def test_covering_code_random_requires_seed(capsys):
    argv = ["covering-code", "--m", "4", "--t", "1", "--method", "random"]
    assert "--seed" in _assert_one_line_error(capsys, argv)


@pytest.mark.parametrize("flag", ["--trials", "--count"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_covering_code_rejects_counts_below_one(capsys, monkeypatch, flag, value):
    # refused before any code is built
    monkeypatch.setattr(mishit.hitting, "build_random_covering_code", None)
    argv = ["covering-code", "--m", "4", "--t", "1", "--method", "random", "--seed", "1", flag, value]
    assert flag in _assert_one_line_error(capsys, argv)


def test_hitting_set_command(g2_file, tmp_path):
    out = tmp_path / "r.json"
    assert main(["hitting-set", "--graph", g2_file, "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["size"] == 3
    assert payload["report"]["optimal"] is True
    assert len(payload["report"]["vertices"]) == 3


def test_hitting_set_stdout_on_shift4(tmp_path, capsys):
    path = tmp_path / "shift4.json"
    save_graph(build_shift_graph(4)[0], path)
    assert main(["hitting-set", "--graph", str(path)]) == 0
    # sha256 as the search returning a result record wrote it
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "fae31faea9de0a6db00533407621f00d18cc558c626c919658a216e7e4dbecb8"
    )


def test_hitting_set_report_on_c4(tmp_path, capsys):
    # C_4's maximum independent sets are {0, 2} and {1, 3}; the least optimum is {0, 1}
    path = tmp_path / "c4.json"
    save_graph(cycle_graph(4), path)
    assert main(["hitting-set", "--graph", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[3:6] == ["size: 2", "vertices: [0, 1]", "optimal: True"]


def test_stochastic_commands_reproduce_json_bytes(g2_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["process", "--graph", g2_file, "--traces", "10", "--seed", "21"]
    assert main(args + ["--json", str(a)]) == 0
    assert main(args + ["--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # a different worker count must not change the artifact
    c = tmp_path / "c.json"
    assert main(args + ["--workers", "2", "--json", str(c)]) == 0
    assert "workers" not in json.loads(a.read_text())["config"]
    assert main(args + ["--workers", "1", "--json", str(b)]) == 0
    assert b.read_bytes() == c.read_bytes()


def _assert_one_line_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("mishit: error: ")
    assert "Traceback" not in err
    return err


def test_hitting_set_above_the_cap_is_a_one_line_error(tmp_path, capsys):
    # 13 disjoint triangles have 3^13 > 10^6 maximum independent sets
    path = tmp_path / "triangles.json"
    save_graph(disjoint_union(*[Graph.complete(3)] * 13), path)
    err = _assert_one_line_error(capsys, ["hitting-set", "--graph", str(path)])
    assert err == "mishit: error: more than 1000000 maximum independent sets; use a structural family\n"


def test_out_of_range_edge_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "edges": [[0, 5]]}))
    _assert_one_line_error(capsys, ["hitting-set", "--graph", str(path)])


@pytest.mark.parametrize("text", [
    '{"edges": [[0, 1]]}',
    '{"n": 3}',
    '{"n": 3, "edges": 5}',
    '{"n": 3, "edges": [[0, 1.5]]}',
    '{"n": 3, "edges": [[0, 1, 2]]}',
    '{"n": 2.5, "edges": []}',
    '{"n": 1000000000, "edges": []}',
    "p edge\ne 1 2\n",
    "p edge 3 1\ne 1\n",
    "p edge 3 1\ne 1 2\np edge 5 0\n",  # a second problem line
])
def test_malformed_graph_file_is_a_one_line_error(tmp_path, capsys, text):
    path = tmp_path / "bad.graph"
    path.write_text(text)
    _assert_one_line_error(capsys, ["hitting-set", "--graph", str(path)])


def test_missing_graph_file_is_a_one_line_error(tmp_path, capsys):
    _assert_one_line_error(capsys, ["alpha-prime", "--graph", str(tmp_path / "absent.json")])


@pytest.mark.parametrize(
    "argv", [["process", "--seed", "1"], ["alpha-prime"], ["hitting-set"]], ids=["process", "alpha-prime", "hitting-set"]
)
def test_empty_graph_is_a_one_line_error(tmp_path, capsys, argv):
    path = tmp_path / "empty.json"
    path.write_text('{"n": 0, "edges": []}')
    _assert_one_line_error(capsys, [*argv, "--graph", str(path)])


@pytest.mark.parametrize("argv, flag", [
    (["shift", "--k", "abc"], "--k"),
    (["shift"], "--k"),
    (["covering-code", "--m", "4", "--t", "1", "--method", "nope"], "--method"),
    ([], "command"),
], ids=["not-an-int", "missing-required", "bad-choice", "no-command"])
def test_argparse_refusal_is_a_one_line_error(capsys, argv, flag):
    # argparse's own error would print a usage block before its error line
    assert flag in _assert_one_line_error(capsys, argv)


def test_argparse_refusal_is_one_line_from_the_module_entry_point():
    done = subprocess.run([sys.executable, "-m", "mishit.cli", "shift", "--k", "abc"], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "mishit: error: argument --k: invalid int value: 'abc'\n"


def test_single_sample_verdict_is_a_one_line_error(g2_file, capsys, monkeypatch):
    # G_2 has alpha/n = 1/3, inside the ceiling's range: refused before any sample is drawn
    monkeypatch.setattr(mishit.process, "alpha_prime_mc", None)
    argv = ["alpha-prime", "--graph", g2_file, "--mode", "mc", "--samples", "1", "--seed", "1"]
    assert "--samples" in _assert_one_line_error(capsys, argv)


def test_exact_refuses_a_large_component_before_solving_alpha(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(mishit.cli, "alpha", None)
    path = tmp_path / "path21.json"
    save_graph(Graph.from_edges(21, [(i, i + 1) for i in range(20)]), path)
    assert "at most 20 vertices" in _assert_one_line_error(capsys, ["alpha-prime", "--graph", str(path)])


def test_single_sample_is_valid_outside_the_ceiling(tmp_path, capsys):
    path = tmp_path / "edgeless.json"
    save_graph(Graph.empty(6), path)  # alpha/n = 1, so no verdict is asked of the sample
    assert main(["alpha-prime", "--graph", str(path), "--mode", "mc", "--samples", "1", "--seed", "1"]) == 0
    assert "ceiling not applicable" in capsys.readouterr().out


@pytest.mark.parametrize("flag, argv", [
    ("--max-n", ["--max-n", "-1"]),
    ("--max-n", ["--max-n", "8"]),
    ("--random", ["--random", "-5", "--seed", "1"]),
    ("--random", ["--random", str((1 << 32) + 1), "--seed", "1"]),
    ("--n-max", ["--random", "2", "--n-max", "0", "--seed", "1"]),
    ("--n-max", ["--random", "2", "--n-max", "-3", "--seed", "1"]),
    ("--n-max", ["--random", "3", "--n-max", str(EXACT_MAX_N + 1), "--seed", "1"]),
    ("--n-max", ["--random", "3", "--n-max", "4096", "--seed", "1"]),
], ids=["max-n-negative", "max-n-above-7", "random-negative", "random-above-2^32", "n-max-zero",
        "n-max-negative", "n-max-above-table-cap", "n-max-4096"])
def test_hajnal_corpus_bad_flag_is_a_one_line_error(capsys, monkeypatch, flag, argv):
    # refused before the exhaustive sweep and before any graph is drawn
    monkeypatch.setattr(mishit.hajnal, "exhaustive_corpus_check", None)
    monkeypatch.setattr(mishit.hajnal, "random_corpus_check", None)
    assert flag in _assert_one_line_error(capsys, ["hajnal-corpus", *argv])


def test_hajnal_corpus_takes_n_max_up_to_the_table_cap(capsys):
    argv = ["hajnal-corpus", "--max-n", "0", "--random", "3", "--seed", "1", "--n-max", str(EXACT_MAX_N)]
    assert main(argv) == 0
    assert "random_checked: 3" in capsys.readouterr().out.splitlines()


def test_hajnal_corpus_takes_2_to_the_32_random_graphs(monkeypatch, capsys):
    def no_draws(count, **kwargs):
        return mishit.hajnal.CorpusCheck(checked=count, violations=0), []

    monkeypatch.setattr(mishit.hajnal, "random_corpus_check", no_draws)
    assert main(["hajnal-corpus", "--max-n", "0", "--random", str(1 << 32), "--seed", "1"]) == 0
    assert f"random_checked: {1 << 32}" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("command, worker", [
    (["hajnal-corpus", "--max-n", "3", "--random", "5"], (mishit.hajnal, "random_corpus_check")),
    (["process", "--traces", "5"], (mishit.process, "run_deletion_traces")),
    (["alpha-prime", "--mode", "mc"], (mishit.process, "alpha_prime_mc")),
    (["covering-code", "--m", "4", "--t", "1", "--method", "random"], (mishit.hitting, "build_random_covering_code")),
], ids=["hajnal-corpus", "process", "alpha-prime", "covering-code"])
def test_negative_seed_is_a_one_line_error(g2_file, capsys, monkeypatch, command, worker):
    # refused before any graph is loaded or built, or any draw made
    monkeypatch.setattr(*worker, None)
    monkeypatch.setattr(mishit.cli, "load_graph", None)
    monkeypatch.setattr(mishit.hajnal, "exhaustive_corpus_check", None)
    graph = [] if command[0] in ("hajnal-corpus", "covering-code") else ["--graph", g2_file]
    err = _assert_one_line_error(capsys, [*command, *graph, "--seed", "-3"])
    assert "--seed must be at least 0, got -3" in err


def test_every_readme_command_line_parses():
    # the doc-side twin of tests/test_bench_contract.py: each example in the
    # README's "Command line" block is accepted by the parser as written
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [line.split("#", 1)[0] for line in block.splitlines() if line.startswith("mishit ")]
    assert len(examples) == 11
    parser = mishit.cli.build_parser()
    for example in examples:
        try:
            parser.parse_args(shlex.split(example)[1:])
        except SystemExit:
            pytest.fail(f"the CLI rejects the README example {example.strip()!r}")

"""Self-tests of the benchmark: span arithmetic, generator, oracles, output.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blendnet
import blendnet.cli
import workloads
from tracing import Span, Tracer, self_times

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_children_on_nested_spans():
    spans = [
        Span("cli", "main", 0.0, 10.0, -1, 0),
        Span("simulator", "simulate", 1.0, 4.0, 0, 0),
        Span("graph", "scan", 2.0, 3.0, 1, 0),
        Span("simulator", "simulate", 5.0, 8.0, 0, 0),
        Span("cli", "main", 20.0, 21.5, -1, 1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 3.0, 1.5])


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("a", "root", 0.0, 10.0, -1, 0),
        Span("b", "x", 1.0, 4.0, 0, 0),
        Span("b", "y", 3.0, 6.0, 0, 0),
        Span("b", "z", 9.0, 12.0, 0, 0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_self_times_sum_per_op():
    tracer = Tracer()
    tracer.spans = [
        Span("cli", "main", 0.0, 10.0, -1, 7),
        Span("simulator", "simulate", 1.0, 4.0, 0, 7),
        Span("graph", "is_strongly_connected", 2.0, 3.0, 1, 7),
        Span("cli", "main", 0.0, 99.0, -1, 8),
    ]
    metrics = tracer.op_metrics(7)
    assert metrics["cli.self_s"] == pytest.approx(7.0)
    assert metrics["simulator.self_s"] == pytest.approx(2.0)
    assert metrics["graph.self_s"] == pytest.approx(1.0)
    assert metrics["graph.is_strongly_connected.calls"] == 1
    assert metrics["simulator.simulate.s"] == pytest.approx(3.0)


def test_tracer_binds_every_alias_and_restores_them():
    originals = {
        ("cli", "validate_weights"): blendnet.cli.validate_weights,
        ("cli", "simulate"): blendnet.cli.simulate,
        ("analysis", "simulate"): blendnet.analysis.simulate,
        ("cli", "perron_pair"): blendnet.cli.perron_pair,
        ("simulator", "perron_pair"): blendnet.simulator.perron_pair,
        ("apps", "measure_tail_error"): blendnet.apps.measure_tail_error,
        ("weights", "is_strongly_connected"): blendnet.weights.is_strongly_connected,
        ("simulator", "is_strongly_connected"): blendnet.simulator.is_strongly_connected,
    }
    tracer = Tracer()
    tracer.install(blendnet)
    try:
        for (mod, name), fn in originals.items():
            assert getattr(getattr(blendnet, mod), name) is not fn, f"{mod}.{name} not wrapped"
        g = blendnet.graph.generate_connected(6, 0.5, seed=1)
        blendnet.cli.validate_weights(blendnet.weights.metropolis_hastings(g, 0.5), g)
    finally:
        tracer.uninstall()
    for (mod, name), fn in originals.items():
        assert getattr(getattr(blendnet, mod), name) is fn
    metrics = tracer.op_metrics(-1)
    assert metrics["weights.validate.calls"] == 1
    assert metrics["weights.build.calls"] == 1
    assert metrics["spectral.eigensolve.calls"] == 1
    assert metrics["graph.neighbor_queries"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    first = workloads.generate(workload, 5, tmp_path / "a")
    again = workloads.generate(workload, 5, tmp_path / "b")
    other = workloads.generate(workload, 6, tmp_path / "c")
    assert first.config.read_bytes() == again.config.read_bytes()
    assert first.config.read_bytes() != other.config.read_bytes()
    assert first.facts == again.facts


def test_kmin_config_carries_one_dynamics_line_per_node(tmp_path):
    inputs = workloads.generate("kmin-directed", 3, tmp_path)
    loaded = blendnet.cli.load_scenario(inputs.config)
    assert loaded.scenario.graph.n == workloads.KMIN_N
    assert len(loaded.scenario.dynamics_builder(loaded.scenario.graph)) == workloads.KMIN_N


def _run(inputs) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert blendnet.cli.main(list(inputs.argv)) == 0
    return out.getvalue()


def test_events_oracle_rejects_a_perturbed_results_file(tmp_path):
    inputs = workloads.generate("run-events-all", 2, tmp_path)
    _run(inputs)
    workloads.check_first(inputs, "")
    results_path = inputs.out_dir / "results.json"
    results = json.loads(results_path.read_text())
    results["estimates"]["5"] += 1
    results_path.write_text(json.dumps(results))
    with pytest.raises(workloads.OracleError, match="estimates differ"):
        workloads.check_first(inputs, "")


def test_events_oracle_rejects_a_loosened_tail_error(tmp_path):
    inputs = workloads.generate("run-events-all", 2, tmp_path)
    inputs.out_dir.mkdir()
    n = inputs.facts["final_n"]
    predicted = inputs.facts["predicted_tail_error"]
    results = {"estimates": {str(v): n for v in range(n)}, "reliable": True}
    report = {"lyapunov_ok": True, "fraction_xi1_ok": True, "max_tail_error": predicted}
    (inputs.out_dir / "results.json").write_text(json.dumps(results))
    (inputs.out_dir / "report.json").write_text(json.dumps(report))
    workloads.check_events(inputs)
    report["max_tail_error"] = predicted * 1.2
    (inputs.out_dir / "report.json").write_text(json.dumps(report))
    with pytest.raises(workloads.OracleError, match="max_tail_error"):
        workloads.check_events(inputs)


def test_pagerank_oracle_rejects_perturbed_scores(tmp_path):
    inputs = workloads.generate("run-large-pagerank", 1, tmp_path)
    g = blendnet.graph.generate_connected(
        workloads.PAGERANK_N, workloads.PAGERANK_P, seed=inputs.facts["config_seed"], undirected=False
    )
    ref = workloads.pagerank_reference(g.edges, workloads.PAGERANK_N, workloads.PAGERANK_M)
    assert np.all(ref > 0) and ref.sum() == pytest.approx(1.0)
    inputs.out_dir.mkdir()
    scores = {str(v): float(x) for v, x in zip(range(1, workloads.PAGERANK_N + 1), ref)}
    (inputs.out_dir / "report.json").write_text(json.dumps({"max_tail_error": 1e-14}))
    (inputs.out_dir / "results.json").write_text(json.dumps({"scores": scores}))
    workloads.check_pagerank(inputs, g.edges)
    scores["7"] *= 1.001
    (inputs.out_dir / "results.json").write_text(json.dumps({"scores": scores}))
    with pytest.raises(workloads.OracleError, match="dense-eig"):
        workloads.check_pagerank(inputs, g.edges)


def test_kmin_oracle_rejects_a_wrong_k(tmp_path):
    inputs = workloads.generate("kmin-directed", 1, tmp_path)
    stdout = _run(inputs)
    assert workloads.check_first(inputs, stdout) <= workloads.KMIN_EPS
    k = json.loads(stdout)["kmin"]
    for wrong in (k - 1, k + 1):
        with pytest.raises(workloads.OracleError):
            workloads.check_kmin(inputs, json.dumps({"kmin": wrong}))


def test_describe_prints_every_metric_with_its_unit():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--describe"], capture_output=True, text=True, check=True
    ).stdout
    rows = {line.split()[1]: line.split()[2] for line in out.splitlines()}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert rows[metric["name"]] == metric["unit"]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_reports_every_metric_of_its_group(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "kmin-directed", "--seed", "4",
         "--seconds", "0", "--trace", trace],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    group = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in group]
    for m in group:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]

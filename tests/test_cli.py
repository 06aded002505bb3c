import json

import numpy as np
import pytest

from blendnet.cli import load_scenario, main
from blendnet.graph import Leave
from blendnet.simulator import initial_constant, simulate

NETSIZE_CFG = """\
[graph]
nodes = 10
edge_probability = 0.35
undirected = true

[coupling]
kind = metropolis_hastings
parameter = 0.5

[app]
kind = netsize

[simulation]
K = 19
horizon = 80
record = integer
initial = zeros
seed = 7

[output]
directory = out
"""

CUSTOM_CFG = """\
[graph]
nodes = 4
edge_probability = 1.0
undirected = true

[coupling]
kind = metropolis_hastings
parameter = 0.5

[app]
kind = custom

[dynamics]
1 = 0.1 0.0
2 = 0.1 0.0
3 = 1.5 0.0
4 = 1.5 0.0

[simulation]
K = 12
horizon = 40
seed = 1
"""


def write(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_validate_ok(tmp_path, capsys):
    cfg = write(tmp_path, NETSIZE_CFG)
    assert main(["validate", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["contractive"] is True
    assert out["gamma"] == pytest.approx((1 - 1 / 10) ** 2, rel=1e-6)
    assert out["weight_violations"] == []


def test_validate_mixed_stable_unstable_nodes(tmp_path, capsys):
    # two stable and two unstable maps blending to 0.8 s
    cfg = write(tmp_path, CUSTOM_CFG)
    assert main(["validate", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["gamma"] == pytest.approx(0.64, rel=1e-6)


def test_validate_rejects_out_of_range_parameter(tmp_path, capsys):
    cfg = write(tmp_path, NETSIZE_CFG.replace("parameter = 0.5", "parameter = 1.2"))
    assert main(["validate", "--config", cfg]) == 1
    assert "open interval" in capsys.readouterr().err


def test_validate_rejects_disconnected_graph_file(tmp_path, capsys):
    (tmp_path / "g.txt").write_text("undirected\n1 2\n3 4\n")
    cfg = write(
        tmp_path,
        NETSIZE_CFG.replace("nodes = 10\nedge_probability = 0.35\nundirected = true", "file = g.txt"),
    )
    assert main(["validate", "--config", cfg]) == 1
    assert "connected" in capsys.readouterr().err


def test_validate_rejects_app_coupling_mismatch(tmp_path, capsys):
    cfg = write(tmp_path, NETSIZE_CFG.replace("kind = metropolis_hastings", "kind = average"))
    assert main(["validate", "--config", cfg]) == 1


def test_run_outputs_and_estimates(tmp_path, capsys):
    cfg = write(tmp_path, NETSIZE_CFG)
    out_dir = tmp_path / "res"
    assert main(["run", "--config", cfg, "--out", str(out_dir)]) == 0
    capsys.readouterr()
    for name in ("trace.csv", "blended.csv", "results.json", "report.json", "lyapunov.csv"):
        assert (out_dir / name).exists()
    results = json.loads((out_dir / "results.json").read_text())
    assert set(results["estimates"].values()) == {10}
    assert results["reliable"] is True
    report = json.loads((out_dir / "report.json").read_text())
    assert report["max_tail_error"] < 0.5
    assert report["lyapunov_max_step_excess"] <= 0.0


def test_run_byte_identical_reruns(tmp_path, capsys):
    cfg = write(tmp_path, NETSIZE_CFG)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(a)]) == 0
    assert main(["run", "--config", cfg, "--out", str(b)]) == 0
    for name in ("trace.csv", "blended.csv", "results.json", "report.json", "lyapunov.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_seed_override_changes_graph(tmp_path, capsys):
    cfg = write(tmp_path, NETSIZE_CFG)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(a)]) == 0
    assert main(["run", "--config", cfg, "--out", str(b), "--seed", "8"]) == 0
    assert (a / "trace.csv").read_bytes() != (b / "trace.csv").read_bytes()


def test_run_with_leave_event_lists_it(tmp_path, capsys):
    cfg = write(
        tmp_path,
        NETSIZE_CFG.replace("[output]", "[events]\nscript =\n    20 leave 4\n\n[output]").replace(
            "horizon = 80", "horizon = 100"
        ),
    )
    out_dir = tmp_path / "ev"
    assert main(["run", "--config", cfg, "--out", str(out_dir)]) == 0
    results = json.loads((out_dir / "results.json").read_text())
    assert len(results["events_applied"]) == 1
    assert "leave" in results["events_applied"][0].lower()
    assert set(results["estimates"].values()) == {9}


def test_kmin_modes(tmp_path, capsys):
    cfg = write(tmp_path, NETSIZE_CFG)
    assert main(["kmin", "--config", cfg, "--eps", "0.4", "--mode", "empirical"]) == 0
    emp = json.loads(capsys.readouterr().out)
    assert main(["kmin", "--config", cfg, "--eps", "0.4", "--mode", "analytic"]) == 0
    ana = json.loads(capsys.readouterr().out)
    assert main(["kmin", "--config", cfg, "--eps", "0.4", "--mode", "corollary"]) == 0
    cor = json.loads(capsys.readouterr().out)
    assert emp["kmin"] <= ana["kmin"]
    assert {"eta", "M1", "Ms"} <= set(ana)
    assert {"eps0", "delta", "sup_f"} <= set(cor)
    # echoed eta sits strictly above the threshold L ||q|| ||R|| ||H|| / sqrt(gamma)
    import math

    import numpy as np

    from blendnet.graph import generate_connected
    from blendnet.spectral import decompose, perron_pair
    from blendnet.weights import metropolis_hastings

    g = generate_connected(10, 0.35, seed=7)
    w = metropolis_hastings(g, 0.5)
    pair = perron_pair(w)
    dec = decompose(w, pair)
    threshold = 1.0 * np.linalg.norm(pair.q) * np.linalg.norm(dec.R, 2) * 1.0 / math.sqrt(ana["gamma"])
    assert ana["eta"] > threshold


GROWING_PATH_CFG = NETSIZE_CFG.replace(
    "nodes = 10\nedge_probability = 0.35\nundirected = true", "file = path4.txt"
).replace("[output]", "[events]\nscript =\n    30 join 5 4-5 5-4\n\n[output]").replace("horizon = 80", "horizon = 60")


@pytest.mark.parametrize("mode", ["analytic", "corollary"])
def test_kmin_sizes_k_for_the_window_that_needs_most(tmp_path, capsys, mode):
    # a 4-node path grows into a 5-node path at t = 30: the later window has the
    # larger |lambda2| and N, so it needs more sub-steps than the first
    (tmp_path / "path4.txt").write_text("undirected\n1 2\n2 3\n3 4\n")
    grown = write(tmp_path, GROWING_PATH_CFG)
    first_only = write(tmp_path, GROWING_PATH_CFG.replace("    30 join 5 4-5 5-4\n", ""), "first.cfg")
    assert main(["kmin", "--config", first_only, "--eps", "0.4", "--mode", mode]) == 0
    alone = json.loads(capsys.readouterr().out)
    assert main(["kmin", "--config", grown, "--eps", "0.4", "--mode", mode]) == 0
    out = json.loads(capsys.readouterr().out)
    first, later = out["per_segment"]
    assert (first["t_start"], first["N"], first["kmin"]) == (0, 4, alone["kmin"])
    assert (later["t_start"], later["N"]) == (30, 5)
    assert later["kmin"] > first["kmin"] and out["kmin"] == later["kmin"]
    # the other top-level keys come from the window that sets K
    assert out["lambda2_mag"] > alone["lambda2_mag"] and out["gamma"] != alone["gamma"]
    assert alone["per_segment"] == [{"t_start": 0, "N": 4, "kmin": alone["kmin"]}]


def test_kmin_empirical_names_its_measured_window(tmp_path, capsys):
    (tmp_path / "path4.txt").write_text("undirected\n1 2\n2 3\n3 4\n")
    cfg = write(tmp_path, GROWING_PATH_CFG)
    assert main(["kmin", "--config", cfg, "--eps", "0.4", "--mode", "empirical"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["measured_window"] == [30, 60] and "per_segment" not in out
    # gamma and |lambda2| are the measured window's (the 5-node path), not the first window's
    assert out["gamma"] == pytest.approx(0.64) and out["lambda2_mag"] == pytest.approx(0.905, abs=5e-4)


def test_kmin_huge_eps_is_one(tmp_path, capsys):
    cfg = write(tmp_path, NETSIZE_CFG)
    assert main(["kmin", "--config", cfg, "--eps", "1e9", "--mode", "empirical"]) == 0
    assert json.loads(capsys.readouterr().out)["kmin"] == 1


def test_batch_runs_two_configs(tmp_path, capsys):
    c1 = write(tmp_path, NETSIZE_CFG, "one.cfg")
    c2 = write(tmp_path, CUSTOM_CFG, "two.cfg")
    out_dir = tmp_path / "batch"
    assert main(["batch", c1, c2, "--out", str(out_dir)]) == 0
    assert (out_dir / "one" / "results.json").exists()
    assert (out_dir / "two" / "results.json").exists()


def test_missing_config_file(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "nope.cfg")]) == 1


def test_bad_events_script(tmp_path, capsys):
    cfg = write(
        tmp_path,
        NETSIZE_CFG.replace("[output]", "[events]\nscript =\n    20 explode 4\n\n[output]"),
    )
    assert main(["run", "--config", cfg]) == 1


def test_custom_requires_dynamics_section(tmp_path, capsys):
    cfg = write(tmp_path, CUSTOM_CFG.replace("[dynamics]", "[unused]"))
    assert main(["validate", "--config", cfg]) == 1


def test_numeric_overflow_exits_2(tmp_path, capsys):
    # contractive blend (0.75) but K = 1 leaves the unstable node unchecked;
    # the state overflows and the run reports a numerical failure
    cfg = write(
        tmp_path,
        CUSTOM_CFG.replace("1 = 0.1 0.0\n2 = 0.1 0.0\n3 = 1.5 0.0\n4 = 1.5 0.0",
                           "1 = 3.0 1.0\n2 = -1.5 0.0\n3 = 0.5 0.0\n4 = 1.0 0.0")
        .replace("K = 12", "K = 1")
        .replace("horizon = 40", "horizon = 4000"),
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "numerical failure" in capsys.readouterr().err


PATH6_CFG = NETSIZE_CFG.replace(
    "nodes = 10\nedge_probability = 0.35\nundirected = true", "file = path6.txt"
).replace("[output]", "[events]\nscript =\n    5 leave 3\n\n[output]")


def test_disconnecting_event_fails_validate_and_run(tmp_path, capsys):
    # removing node 3 splits the path 1-2-3-4-5-6; planning fails before any round
    (tmp_path / "path6.txt").write_text("undirected\n1 2\n2 3\n3 4\n4 5\n5 6\n")
    cfg = write(tmp_path, PATH6_CFG)
    assert main(["validate", "--config", cfg]) == 1
    assert "t=5:" in capsys.readouterr().err
    out_dir = tmp_path / "res"
    assert main(["run", "--config", cfg, "--out", str(out_dir)]) == 1
    assert "t=5:" in capsys.readouterr().err
    assert not out_dir.exists()


def _count_configurations(monkeypatch):
    """Count weight constructions and dense eigensolves of coupling matrices."""
    import numpy as np

    import blendnet.simulator as simulator

    counts = {"builds": 0, "eigvals": 0}

    def counting(fn, key):
        def wrapper(a, *args, **kwargs):
            if key == "builds" or (np.ndim(a) == 2 and len(a) > 1):
                counts[key] += 1
            return fn(a, *args, **kwargs)

        return wrapper

    for name in ("metropolis_hastings", "pagerank_coupling", "average_coupling"):
        monkeypatch.setattr(simulator, name, counting(getattr(simulator, name), "builds"))
    monkeypatch.setattr(np.linalg, "eigvals", counting(np.linalg.eigvals, "eigvals"))
    return counts


def test_run_configures_each_segment_once(tmp_path, capsys, monkeypatch):
    cfg = write(
        tmp_path,
        NETSIZE_CFG.replace("[output]", "[events]\nscript =\n    20 leave 4\n\n[output]").replace(
            "horizon = 80", "horizon = 100"
        ),
    )
    counts = _count_configurations(monkeypatch)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "res")]) == 0
    assert counts == {"builds": 2, "eigvals": 2}


def test_kmin_empirical_configures_once(tmp_path, capsys, monkeypatch):
    cfg = write(tmp_path, NETSIZE_CFG)
    counts = _count_configurations(monkeypatch)
    assert main(["kmin", "--config", cfg, "--eps", "0.4", "--mode", "empirical"]) == 0
    assert json.loads(capsys.readouterr().out)["kmin"] > 1  # several probe simulations ran
    assert counts == {"builds": 1, "eigvals": 1}


DEGSEQ_CFG = """\
[graph]
nodes = 6
edge_probability = 0.5
undirected = true

[coupling]
kind = average
parameter = 0.5

[app]
kind = degseq
arithmetic = exact

[simulation]
K = 20
horizon = 40
seed = 3
"""


def test_exact_arithmetic_is_rejected(tmp_path, capsys):
    cfg = write(tmp_path, DEGSEQ_CFG)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "res")]) == 1
    assert "library-only" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()
    cfg = write(tmp_path, DEGSEQ_CFG.replace("arithmetic = exact", "arithmetic = floating"))
    assert main(["validate", "--config", cfg]) == 0


def test_fraction_checks_report_their_round_count(tmp_path, capsys):
    # record = integer keeps no fraction counts: the checks are not evaluated
    cfg = write(tmp_path, NETSIZE_CFG)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "int")]) == 0
    report = json.loads((tmp_path / "int" / "report.json").read_text())
    assert report["fraction_rounds"] == 0
    assert report["fraction_xi1_ok"] is None and report["fraction_decay_ok"] is None
    cfg = write(tmp_path, NETSIZE_CFG.replace("record = integer", "record = all"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "all")]) == 0
    report = json.loads((tmp_path / "all" / "report.json").read_text())
    assert report["fraction_rounds"] == 80
    assert report["fraction_xi1_ok"] is True and report["fraction_decay_ok"] is True


def test_later_window_is_certified_before_any_round(tmp_path, capsys):
    # the first window blends to 0.8 s; after node 1 leaves, the rest blend to
    # (0.1 + 1.5 + 1.5) / 3 > 1, so both commands fail at t=10 before simulating
    cfg = write(
        tmp_path,
        CUSTOM_CFG.replace("K = 12", "K = 5") + "\n[events]\nscript =\n    10 leave 1\n",
    )
    assert main(["validate", "--config", cfg]) == 1
    assert "t=10:" in capsys.readouterr().err
    out_dir = tmp_path / "res"
    assert main(["run", "--config", cfg, "--out", str(out_dir)]) == 1
    assert "t=10:" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["validate"],
        ["run"],
        ["kmin", "--eps", "0.1", "--mode", "analytic"],
        ["kmin", "--eps", "0.1", "--mode", "corollary"],
        ["kmin", "--eps", "0.1", "--mode", "empirical"],
    ],
    ids=["validate", "run", "kmin-analytic", "kmin-corollary", "kmin-empirical"],
)
def test_every_command_certifies_every_window(tmp_path, capsys, argv):
    # the first window blends to 0.8 s + 1, the one after node 1 leaves does not
    # contract; kmin used to size K from the first window alone and exit 0
    text = CUSTOM_CFG.replace(" 0.0\n", " 1.0\n").replace("K = 12", "K = 5").replace("horizon = 40", "horizon = 30")
    cfg = write(tmp_path, text + "\n[events]\nscript =\n    10 leave 1\n")
    out_dir = tmp_path / "res"
    assert main([argv[0], "--config", cfg, "--out", str(out_dir), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: t=10: linear part has spectral radius")
    assert not out_dir.exists()


def test_degseq_results_say_whether_rounding_is_exact(tmp_path, capsys, caplog):
    from blendnet.graph import degree_sequence, generate_connected

    floating = DEGSEQ_CFG.replace("arithmetic = exact", "arithmetic = floating")
    truth = list(degree_sequence(generate_connected(6, 0.5, seed=3)))
    # K = 40 leaves a tail error above one half: the decode is wrong, and says so
    cfg = write(tmp_path, floating.replace("K = 20", "K = 40"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "k40")]) == 0
    results = json.loads((tmp_path / "k40" / "results.json").read_text())
    assert results["tail_error"] >= 0.5 and results["reliable"] is False
    assert any(seq != truth for seq in results["sequences"].values())
    assert "degree-sequence estimate unreliable" in caplog.text
    caplog.clear()
    cfg = write(tmp_path, floating.replace("K = 20", "K = 60"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "k60")]) == 0
    results = json.loads((tmp_path / "k60" / "results.json").read_text())
    assert results["tail_error"] < 0.5 and results["reliable"] is True
    assert all(seq == truth for seq in results["sequences"].values())
    assert "unreliable" not in caplog.text


TRIANGLE_CFG = """\
[graph]
nodes = 3
edge_probability = 1.0
undirected = true

[coupling]
kind = average
parameter = 0.5

[app]
kind = custom

[dynamics]
1 = 0.5 0
2 = 0.5 0
3 = 0.5 0

[simulation]
K = 3
horizon = 5
initial = zeros
seed = 1
"""


@pytest.mark.parametrize(
    "old, new, where",
    [
        ("3 = 0.5 0", "3 = nan 0", "[dynamics] 3"),
        ("3 = 0.5 0", "3 = inf 0", "[dynamics] 3"),
        ("initial = zeros", "initial = constant nan", "[simulation] initial"),
        ("initial = zeros", "initial = zeros\ntail_fraction = nan", "[simulation] tail_fraction"),
        ("initial = zeros", "initial = box -inf 1", "[simulation] initial"),
    ],
)
def test_non_finite_config_number_is_a_config_error(tmp_path, capsys, old, new, where):
    cfg = write(tmp_path, TRIANGLE_CFG.replace(old, new))
    out_dir = tmp_path / "res"
    assert main(["run", "--config", cfg, "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert where in err and "not a finite number" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("fraction", ["-1", "0", "2"])
def test_tail_fraction_outside_unit_interval_is_a_config_error(tmp_path, capsys, fraction):
    cfg = write(tmp_path, TRIANGLE_CFG.replace("initial = zeros", f"initial = zeros\ntail_fraction = {fraction}"))
    out_dir = tmp_path / "res"
    assert main(["run", "--config", cfg, "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert "[simulation] tail_fraction" in err and "outside (0, 1]" in err
    assert not out_dir.exists()


def _reject_constant(name):
    raise ValueError(f"{name} in strict JSON")


# the overflows this scenario is made of warn on their way to the failure
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_report_is_a_numerical_failure(tmp_path, capsys):
    # the states stay finite, but their distances to the reference overflow
    cfg = write(tmp_path, TRIANGLE_CFG.replace("3 = 0.5 0", "3 = 0.5 1e308"))
    out_dir = tmp_path / "res"
    assert main(["run", "--config", cfg, "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "report.max_tail_error = inf" in err
    assert not out_dir.exists()
    # a finite run writes strict JSON; only lyapunov.csv's last row, which has
    # no step after it, ends in nan, nan
    cfg = write(tmp_path, TRIANGLE_CFG.replace("3 = 0.5 0", "3 = 0.5 1"))
    assert main(["run", "--config", cfg, "--out", str(out_dir)]) == 0
    for name in ("results.json", "report.json"):
        json.loads((out_dir / name).read_text(), parse_constant=_reject_constant)
    rows = (out_dir / "lyapunov.csv").read_text().splitlines()[1:]
    assert rows[-1].endswith(",nan,nan")
    assert all("nan" not in row and "inf" not in row for row in rows[:-1])


@pytest.mark.parametrize("eps", ["nan", "inf", "0", "-1"])
def test_kmin_rejects_eps_that_is_not_positive_and_finite(tmp_path, capsys, eps):
    cfg = write(tmp_path, TRIANGLE_CFG)
    for mode in ("analytic", "corollary", "empirical"):
        assert main(["kmin", "--config", cfg, "--eps", eps, "--mode", mode]) == 1
        assert "not a positive finite number" in capsys.readouterr().err


PAGERANK_RING_CFG = """\
[graph]
file = ring.txt

[coupling]
kind = pagerank
parameter = 0.15

[app]
kind = pagerank
n = 400

[simulation]
K = 20
horizon = 10
"""


def test_validate_slowly_mixing_pagerank_ring(tmp_path, capsys):
    # a directed 400-ring plus the chord 1 -> 200 has 1 - |lambda2| ~ 6.5e-5;
    # the Perron pair is still one linear solve away
    n = 400
    edges = [f"{i} {i % n + 1}" for i in range(1, n + 1)] + [f"1 {n // 2}"]
    (tmp_path / "ring.txt").write_text("\n".join(edges) + "\n")
    cfg = write(tmp_path, PAGERANK_RING_CFG)
    assert main(["validate", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["weight_violations"] == []


def test_custom_coupling_kind_is_unknown(tmp_path, capsys):
    cfg = write(tmp_path, CUSTOM_CFG.replace("kind = metropolis_hastings", "kind = custom"))
    assert main(["validate", "--config", cfg]) == 1
    assert "unknown coupling kind" in capsys.readouterr().err


PAGERANK_CFG = """\
[graph]
nodes = 8
edge_probability = 0.3
undirected = false

[coupling]
kind = pagerank
parameter = 0.15

[app]
kind = pagerank
n = 8
nu = 0.4

[simulation]
K = 30
horizon = 40
record = integer
initial = constant 2
seed = 11
tail_fraction = 0.5
"""


def test_pagerank_n_other_than_the_graph_size_exits_1(tmp_path, capsys):
    cfg = write(tmp_path, PAGERANK_CFG.replace("n = 8", "n = 7"))
    for argv in (["validate"], ["run", "--out", str(tmp_path / "res")], ["kmin", "--eps", "0.4"]):
        assert main([argv[0], "--config", cfg, *argv[1:]]) == 1
        assert capsys.readouterr().err == "error: pagerank n_agents = 7 differs from the graph's 8 nodes\n"
    assert not (tmp_path / "res").exists()


def _library_twin(app):
    """A CLI config and the same scenario built by the app's library builder."""
    from blendnet import apps
    from blendnet.graph import generate_connected

    if app == "netsize":
        text = NETSIZE_CFG.replace("[output]", "[events]\nscript =\n    20 leave 4\n\n[output]")
        text = text.replace("kind = netsize", "kind = netsize\nanchor = 3")
        g = generate_connected(10, 0.35, seed=7)
        cfg = apps.NetSizeConfig(mu=0.5, anchor=3)
        sc = apps.netsize_scenario(g, cfg, K=19, horizon=80, record="integer", seed=7, events=((20, Leave(4)),))
    elif app == "pagerank":
        text = PAGERANK_CFG
        g = generate_connected(8, 0.3, seed=11, undirected=False)
        cfg = apps.PageRankConfig(n_agents=8, nu=0.4, m=0.15)
        sc = apps.pagerank_scenario(
            g, cfg, K=30, horizon=40, record="integer", initial=initial_constant(2.0), seed=11, tail_fraction=0.5
        )
    else:
        text = DEGSEQ_CFG.replace("arithmetic = exact", "ids = 1:3 2:2 3:4 4:5 5:6 6:7\nn = 6")
        g = generate_connected(6, 0.5, seed=3)
        cfg = apps.DegSeqConfig(theta=0.5, ids=((1, 3), (2, 2), (3, 4), (4, 5), (5, 6), (6, 7)), n_agents=6)
        sc = apps.degseq_scenario(g, cfg, K=20, horizon=40, seed=3)
    return text, cfg, sc


@pytest.mark.parametrize("app", ["netsize", "pagerank", "degseq"])
def test_cli_builds_app_scenarios_through_the_library_builder(tmp_path, app):
    text, cfg, expected = _library_twin(app)
    loaded = load_scenario(write(tmp_path, text))
    assert loaded.app_kind == app and loaded.app_cfg == cfg
    assert loaded.scenario.digest == expected.digest
    assert np.array_equal(simulate(loaded.scenario).final, simulate(expected).final)


def test_unsorted_events_fail_every_command_once(tmp_path, capsys):
    script = "[events]\nscript =\n    30 leave 4\n    20 leave 5\n\n[output]"
    cfg = write(tmp_path, NETSIZE_CFG.replace("[output]", script).replace("horizon = 80", "horizon = 100"))
    for argv in (["validate"], ["run", "--out", str(tmp_path / "res")], ["kmin", "--eps", "0.4"]):
        assert main([argv[0], "--config", cfg, *argv[1:]]) == 1
        assert capsys.readouterr().err == "error: events must be sorted by time\n"
    assert not (tmp_path / "res").exists()

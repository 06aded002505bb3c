"""Seeded workload generator and output oracles for the blendnet benchmark.

Each workload is one ``blendnet`` CLI call on config files written here from
the workload seed; the program sees only those files.  The oracles recompute
what they can with plain numpy (no ``blendnet.weights`` or ``spectral``), so a
faster program that loosens its numerics fails them instead of passing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from blendnet.analysis import measure_tail_error
from blendnet.cli import load_scenario
from blendnet.graph import generate_connected
from blendnet.simulator import simulate

WORKLOADS = ("run-events-all", "kmin-directed", "run-large-pagerank")

# Sizes are fixed here; the seed picks the graphs and the affine coefficients.
EVENTS_N, EVENTS_P, EVENTS_K, EVENTS_HORIZON = 30, 0.15, 40, 300
EVENTS_SCRIPT = ("60 leave 20", "120 join 31 1-31 2-31 3-31")
KMIN_N, KMIN_P, KMIN_EPS = 200, 0.05, 1e-3
PAGERANK_N, PAGERANK_M, PAGERANK_NU = 600, 0.15, 0.5
PAGERANK_P = 10.0 / PAGERANK_N

# run-events-all rounds its estimates, which is exact only while the tail
# error stays below 1/2; graphs whose steady-state error at K=40 exceeds half
# of that are skipped, as is any graph that node 20's departure disconnects.
EVENTS_MAX_PREDICTED_ERROR = 0.25
# relative agreement demanded between report.json's max_tail_error and the
# independent steady-state prediction (measured agreement is within 0.5%)
EVENTS_TAIL_RTOL = 0.05
PAGERANK_RTOL = 1e-6


class OracleError(AssertionError):
    """An op's output disagrees with what the oracle computed."""


@dataclass
class Inputs:
    """Generated files plus what the oracles need to know about them."""

    workload: str
    config: Path
    out_dir: Path | None
    argv: list[str]
    facts: dict = field(default_factory=dict)


def _connected(nodes, edges) -> bool:
    adj = {v: [] for v in nodes}
    for j, i in edges:
        adj[j].append(i)
    start = next(iter(nodes))
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


def metropolis_matrix(nodes, edges, mu: float) -> np.ndarray:
    """Metropolis-Hastings coupling of an undirected edge set, from its formula."""
    idx = {v: k for k, v in enumerate(sorted(nodes))}
    deg = dict.fromkeys(idx, 0)
    for _, i in edges:
        deg[i] += 1
    w = np.zeros((len(idx), len(idx)))
    for j, i in edges:
        w[idx[i], idx[j]] = (1.0 - mu) / max(deg[i], deg[j])
    w[np.diag_indices(len(idx))] = 1.0 - w.sum(axis=1)
    return w


def netsize_steady_error(nodes, edges, mu: float, K: int) -> float:
    """max_i |x_i* - N| at the fixed point of x <- W^(K-1) (a x + 1).

    The anchor (smallest id) has a = 0, every other node a = 1; Metropolis
    coupling is doubly stochastic, so p = 1 and the blended fixed point is N.
    """
    w = metropolis_matrix(nodes, edges, mu)
    n = w.shape[0]
    m = np.linalg.matrix_power(w, K - 1)
    a = np.ones(n)
    a[0] = 0.0
    x = np.linalg.solve(np.eye(n) - m * a[None, :], m @ np.ones(n))
    return float(np.max(np.abs(x - n)))


def _events_final_graph(edges):
    """Membership after the event script: node 20 leaves, node 31 joins to 1, 2, 3."""
    kept = [e for e in edges if 20 not in e]
    nodes = sorted({v for v in range(1, EVENTS_N + 1) if v != 20})
    if not _connected(nodes, kept):
        return None
    joined = [(a, 31) for a in (1, 2, 3)] + [(31, a) for a in (1, 2, 3)]
    return nodes + [31], kept + joined


def _events_config(config_seed: int) -> str:
    script = "".join(f"\n    {line}" for line in EVENTS_SCRIPT)
    return (
        "[graph]\n"
        f"nodes = {EVENTS_N}\nedge_probability = {EVENTS_P}\nundirected = true\n\n"
        "[coupling]\nkind = metropolis_hastings\nparameter = 0.5\n\n"
        "[app]\nkind = netsize\n\n"
        "[simulation]\n"
        f"K = {EVENTS_K}\nhorizon = {EVENTS_HORIZON}\nrecord = all\ninitial = zeros\nseed = {config_seed}\n\n"
        f"[events]\nscript ={script}\n"
    )


def _kmin_config(config_seed: int, a: np.ndarray, b: np.ndarray) -> str:
    dynamics = "\n".join(f"{v} = {float(a[k])!r} {float(b[k])!r}" for k, v in enumerate(range(1, KMIN_N + 1)))
    return (
        "[graph]\n"
        f"nodes = {KMIN_N}\nedge_probability = {KMIN_P}\nundirected = false\n\n"
        "[coupling]\nkind = average\nparameter = 0.5\n\n"
        "[app]\nkind = custom\n\n"
        "[simulation]\n"
        f"K = 1\nhorizon = 80\nrecord = integer\ninitial = box -1 1\nseed = {config_seed}\n\n"
        f"[dynamics]\n{dynamics}\n"
    )


def _pagerank_config(config_seed: int) -> str:
    return (
        "[graph]\n"
        f"nodes = {PAGERANK_N}\nedge_probability = {PAGERANK_P!r}\nundirected = false\n\n"
        f"[coupling]\nkind = pagerank\nparameter = {PAGERANK_M}\n\n"
        f"[app]\nkind = pagerank\nnu = {PAGERANK_NU}\nn = {PAGERANK_N}\n\n"
        "[simulation]\n"
        f"K = 100\nhorizon = 30\nrecord = integer\ninitial = zeros\nseed = {config_seed}\n"
    )


def generate(workload: str, seed: int, directory: Path) -> Inputs:
    """Write the workload's config for ``seed`` into ``directory``.

    The same (workload, seed) always writes the same bytes.
    """
    directory.mkdir(parents=True, exist_ok=True)
    config = directory / f"{workload}.cfg"
    out_dir = directory / "out"
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    facts: dict = {}
    if workload == "run-events-all":
        for _ in range(200):
            config_seed = int(rng.integers(1, 2**31))
            g = generate_connected(EVENTS_N, EVENTS_P, seed=config_seed, undirected=True)
            final = _events_final_graph(g.edges)
            if final is None:
                continue
            predicted = netsize_steady_error(*final, mu=0.5, K=EVENTS_K)
            if predicted <= EVENTS_MAX_PREDICTED_ERROR:
                break
        else:
            raise RuntimeError(f"no usable run-events-all graph for seed {seed}")
        text = _events_config(config_seed)
        facts = {"final_n": len(final[0]), "predicted_tail_error": predicted}
        argv = ["run", "--config", str(config), "--out", str(out_dir)]
    elif workload == "kmin-directed":
        config_seed = int(rng.integers(1, 2**31))
        a = rng.uniform(0.2, 1.3, size=KMIN_N)
        b = rng.uniform(-1.0, 1.0, size=KMIN_N)
        text = _kmin_config(config_seed, a, b)
        out_dir = None
        argv = ["kmin", "--config", str(config), "--eps", repr(KMIN_EPS), "--mode", "empirical"]
    else:
        config_seed = int(rng.integers(1, 2**31))
        text = _pagerank_config(config_seed)
        facts = {"config_seed": config_seed}
        argv = ["run", "--config", str(config), "--out", str(out_dir)]
    config.write_text(text)
    return Inputs(workload, config, out_dir, argv, facts)


# ---------------------------------------------------------------------------
# oracles


def output_digest(inputs: Inputs, stdout: str) -> tuple[str, int]:
    """Hash of everything the op produced, and the bytes it wrote to disk."""
    h = hashlib.sha256()
    written = 0
    if inputs.out_dir is None:
        h.update(stdout.encode())
    else:
        for path in sorted(inputs.out_dir.iterdir()):
            data = path.read_bytes()
            written += len(data)
            h.update(path.name.encode() + b"\0" + data)
    return h.hexdigest(), written


def _require(cond: bool, message: str):
    if not cond:
        raise OracleError(message)


def check_events(inputs: Inputs) -> float:
    """Every node estimates the final N reliably; report checks hold; the tail
    error matches the independent steady-state prediction."""
    results = json.loads((inputs.out_dir / "results.json").read_text())
    report = json.loads((inputs.out_dir / "report.json").read_text())
    n = inputs.facts["final_n"]
    estimates = results["estimates"]
    _require(len(estimates) == n, f"{len(estimates)} estimates for {n} nodes")
    wrong = {k: v for k, v in estimates.items() if v != n}
    _require(not wrong, f"estimates differ from N={n}: {wrong}")
    _require(results["reliable"] is True, "netsize estimate flagged unreliable")
    _require(report["lyapunov_ok"] is True, "lyapunov_ok is not set")
    _require(report["fraction_xi1_ok"] is True, "fraction_xi1_ok is not set")
    err = float(report["max_tail_error"])
    predicted = inputs.facts["predicted_tail_error"]
    _require(
        abs(err - predicted) <= EVENTS_TAIL_RTOL * predicted,
        f"max_tail_error {err!r} vs steady-state prediction {predicted!r}",
    )
    return err


def pagerank_reference(edges, n: int, m: float) -> np.ndarray:
    """Right Perron vector of m I + (1-m) A D_out^-1 by dense eig, summing to one."""
    a = np.zeros((n, n))
    for j, i in edges:
        a[i - 1, j - 1] = 1.0
    w = m * np.eye(n) + (1.0 - m) * a / a.sum(axis=0)[None, :]
    vals, vecs = np.linalg.eig(w)
    v = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
    return v / v.sum()


def check_pagerank(inputs: Inputs, edges) -> float:
    """Scores agree with the dense-eig Perron vector; returns report.json's tail error."""
    results = json.loads((inputs.out_dir / "results.json").read_text())
    report = json.loads((inputs.out_dir / "report.json").read_text())
    scores = results["scores"]
    _require(len(scores) == PAGERANK_N, f"{len(scores)} scores for {PAGERANK_N} nodes")
    x = np.array([scores[str(v)] for v in range(1, PAGERANK_N + 1)])
    ref = pagerank_reference(edges, PAGERANK_N, PAGERANK_M)
    rel = float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))
    _require(rel <= PAGERANK_RTOL, f"scores deviate from the dense-eig vector by {rel:.3g} (relative)")
    return float(report["max_tail_error"])


def check_kmin(inputs: Inputs, stdout: str) -> float:
    """The returned K reaches tail error <= eps and K-1 does not, re-measured."""
    eps = KMIN_EPS
    k = int(json.loads(stdout)["kmin"])
    scenario = load_scenario(inputs.config).scenario

    def tail(kk: int) -> float:
        return float(measure_tail_error(simulate(replace(scenario, K=kk)))[0])

    err = tail(k)
    _require(err <= eps, f"K={k} gives tail error {err!r} > eps={eps}")
    if k > 1:
        below = tail(k - 1)
        _require(below > eps, f"K-1={k - 1} already gives tail error {below!r} <= eps={eps}")
    return err


def check_first(inputs: Inputs, stdout: str) -> float:
    """Full oracle on one op's outputs; returns the tail error it saw."""
    if inputs.workload == "run-events-all":
        return check_events(inputs)
    if inputs.workload == "kmin-directed":
        return check_kmin(inputs, stdout)
    g = generate_connected(PAGERANK_N, PAGERANK_P, seed=inputs.facts["config_seed"], undirected=False)
    return check_pagerank(inputs, g.edges)

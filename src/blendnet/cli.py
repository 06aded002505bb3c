"""Scenario-driven command line: validate, run, kmin, batch.

Configs are flat key = value sections (configparser syntax) so that every run
is archivable and exactly reproducible.  All randomness flows through the
config seed; reruns produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import configparser
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import apps
from .analysis import (
    AnalysisError,
    ContractionCertificate,
    certify_segment,
    error_report,
    estimate_sup_f,
    fraction_identities,
    kmin_analytic,
    kmin_corollary,
    kmin_empirical,
    norm_constants,
)
from .graph import GraphError, Join, Leave, generate_connected, parse_edge_list
from .simulator import (
    AssumptionViolation,
    Scenario,
    Segment,
    SimulationError,
    SimulationTrace,
    affine_dynamics,
    blended_to_csv,
    initial_box,
    initial_constant,
    initial_explicit,
    initial_zeros,
    plan_segments,
    scenario_hash,
    simulate,
    trace_to_csv,
)
# perron_pair and validate_weights are unused here, but
# bench/tests/test_bench.py::test_tracer_binds_every_alias_and_restores_them reads both names
from .spectral import SpectralError, perron_pair  # noqa: F401
from .weights import WeightError, validate as validate_weights  # noqa: F401

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERIC = 2

class ConfigError(ValueError):
    """Unparseable or inconsistent scenario configuration."""


def _finite(text: str) -> float:
    """``float(text)``, refusing NaN and infinities with a ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _parse_initial(text: str):
    parts = text.split()
    kind = parts[0] if parts else ""
    try:
        if kind == "zeros" and len(parts) == 1:
            return initial_zeros()
        if kind == "constant" and len(parts) == 2:
            return initial_constant(_finite(parts[1]))
        if kind == "box" and len(parts) == 3:
            return initial_box(_finite(parts[1]), _finite(parts[2]))
        if kind == "explicit" and len(parts) > 1:
            mapping = {}
            for tok in parts[1:]:
                node, value = tok.split(":")
                mapping[int(node)] = _finite(value)
            return initial_explicit(mapping)
    except ValueError as exc:
        raise ConfigError(f"[simulation] initial: bad spec {text!r}: {exc}") from exc
    raise ConfigError(f"[simulation] initial: bad spec {text!r}")


def _parse_events(script: str):
    events = []
    for lineno, raw in enumerate(script.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        try:
            t = int(parts[0])
            action = parts[1]
            node = int(parts[2])
            if action == "leave" and len(parts) == 3:
                events.append((t, Leave(node)))
                continue
            if action == "join":
                edges = []
                for tok in parts[3:]:
                    j, i = tok.split("-")
                    edges.append((int(j), int(i)))
                events.append((t, Join(node, tuple(edges))))
                continue
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"events line {lineno}: cannot parse {line!r}: {exc}") from exc
        raise ConfigError(f"events line {lineno}: unknown action in {line!r}")
    return tuple(events)


def _require(cp: configparser.ConfigParser, section: str, option: str) -> str:
    if not cp.has_option(section, option):
        raise ConfigError(f"missing [{section}] {option}")
    return cp.get(section, option)


def _float(cp: configparser.ConfigParser, section: str, option: str, fallback: float | None = None) -> float:
    """A finite float option; required when ``fallback`` is None."""
    if fallback is not None and not cp.has_option(section, option):
        return fallback
    text = _require(cp, section, option)
    try:
        return _finite(text)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {option}: {exc}") from exc


def _open_interval(name: str, value: float) -> float:
    if not 0.0 < value < 1.0:
        raise ConfigError(f"{name} = {value} outside the open interval (0, 1)")
    return value


@dataclass(frozen=True)
class LoadedScenario:
    """Scenario plus the app/config metadata the commands need."""

    scenario: Scenario
    app_kind: str
    app_cfg: apps.NetSizeConfig | apps.PageRankConfig | apps.DegSeqConfig | None
    out_dir: Path


def _app_config(cp: configparser.ConfigParser, app_kind: str, parameter: float):
    """The ``[app]`` section of a netsize, pagerank or degseq run: its library
    config and the ``apps`` builder that turns it into a Scenario."""
    if app_kind == "netsize":
        anchor = cp.getint("app", "anchor", fallback=0) or None
        return apps.NetSizeConfig(mu=parameter, anchor=anchor), apps.netsize_scenario
    if app_kind == "pagerank":
        nu = _open_interval("nu", _float(cp, "app", "nu", fallback=0.5))
        n_agents = cp.getint("app", "n", fallback=0)
        if n_agents < 1:
            raise ConfigError("[app] n (network size) is required for pagerank; chain it from a netsize run")
        return apps.PageRankConfig(n_agents=n_agents, nu=nu, m=parameter), apps.pagerank_scenario
    if app_kind == "degseq":
        pairs = (tok.split(":") for tok in cp.get("app", "ids", fallback="").split())
        ids = tuple((int(node), int(ident)) for node, ident in pairs)
        arithmetic = cp.get("app", "arithmetic", fallback="floating")
        if arithmetic != "floating":
            raise ConfigError(
                f"[app] arithmetic = {arithmetic} is not available from the command line, which "
                "simulates in floating point; exact mode is library-only (apps.degseq_simulate_exact)"
            )
        n_agents = cp.getint("app", "n", fallback=0) or None
        return apps.DegSeqConfig(theta=parameter, ids=ids, n_agents=n_agents), apps.degseq_scenario
    raise ConfigError(f"unknown app kind {app_kind!r}")


def _custom_dynamics(cp: configparser.ConfigParser):
    """The ``[dynamics]`` table of a custom app as a dynamics builder."""
    if not cp.has_section("dynamics"):
        raise ConfigError("custom app requires a [dynamics] section (node = a b)")
    coeffs = {}
    for key, value in cp.items("dynamics"):
        parts = value.replace(",", " ").split()
        if len(parts) != 2:
            raise ConfigError(f"[dynamics] {key}: expected 'a b', got {value!r}")
        try:
            coeffs[int(key)] = (_finite(parts[0]), _finite(parts[1]))
        except ValueError as exc:
            raise ConfigError(f"[dynamics] {key}: {exc}") from exc

    def builder(g):
        missing = [v for v in g.nodes if v not in coeffs]
        if missing:
            raise AssumptionViolation(f"no affine coefficients for nodes {missing}")
        return [affine_dynamics(*coeffs[v]) for v in g.nodes]

    return builder


def load_scenario(path: str | Path, seed_override: int | None = None, out_override: str | None = None) -> LoadedScenario:
    path = Path(path)
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")

    seed = seed_override if seed_override is not None else cp.getint("simulation", "seed", fallback=0)

    if cp.has_option("graph", "file"):
        graph_path = (path.parent / cp.get("graph", "file")).resolve()
        try:
            graph = parse_edge_list(graph_path.read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read graph file {graph_path}: {exc}") from exc
    else:
        n = int(_require(cp, "graph", "nodes"))
        p = _float(cp, "graph", "edge_probability")
        undirected = cp.getboolean("graph", "undirected", fallback=True)
        graph = generate_connected(n, p, seed=seed, undirected=undirected)

    kind = _require(cp, "coupling", "kind")
    parameter = _open_interval("coupling parameter", _float(cp, "coupling", "parameter"))

    K = cp.getint("simulation", "K", fallback=1)
    horizon = cp.getint("simulation", "horizon", fallback=1)
    if K < 1 or horizon < 1:
        raise ConfigError("K and horizon must be at least 1")
    tail_fraction = _float(cp, "simulation", "tail_fraction", fallback=0.25)
    if not 0.0 < tail_fraction <= 1.0:
        raise ConfigError(f"[simulation] tail_fraction = {tail_fraction} outside (0, 1]")
    fields = dict(
        initial=_parse_initial(cp.get("simulation", "initial", fallback="zeros")),
        events=_parse_events(cp.get("events", "script", fallback="")),
        record=cp.get("simulation", "record", fallback="all"),
        seed=seed,
        tail_fraction=tail_fraction,
    )

    app_kind = cp.get("app", "kind", fallback="custom")
    if app_kind == "custom":
        app_cfg = None
        scenario = Scenario(graph, kind, parameter, _custom_dynamics(cp), K, horizon, **fields)
    else:
        app_cfg, build = _app_config(cp, app_kind, parameter)
        scenario = build(graph, app_cfg, K, horizon, **fields)
        if scenario.coupling != kind:
            raise ConfigError(f"app {app_kind!r} requires coupling {scenario.coupling!r}, got {kind!r}")

    out_dir = Path(out_override) if out_override else Path(cp.get("output", "directory", fallback="out"))
    if not out_dir.is_absolute():
        out_dir = path.parent / out_dir
    return LoadedScenario(scenario, app_kind, app_cfg, out_dir)


def _plan_and_check(sc: Scenario) -> tuple[tuple[Segment, ...], tuple[ContractionCertificate, ...]]:
    """Plan and certify every membership window (any broken one raises); print the first one's checks."""
    segments = plan_segments(sc)
    certs = tuple(certify_segment(seg) for seg in segments)
    seg, cert = segments[0], certs[0]
    checks = {
        "graph_nodes": seg.graph.n,
        "strongly_connected": True,  # planning would have raised otherwise
        "weight_violations": list(seg.report.violations),  # likewise empty
        "spectral_radius": seg.report.spectral_radius,
        "lambda2_mag": seg.pair.lambda2_mag,
        "lambdaN_mag": seg.pair.lambdaN_mag,
        "gamma": cert.gamma,
        "contractive": cert.contractive,
    }
    print(json.dumps(checks, indent=2, sort_keys=True))
    return segments, certs


def cmd_validate(loaded: LoadedScenario) -> int:
    _plan_and_check(loaded.scenario)
    return EXIT_OK


def _results_block(loaded: LoadedScenario, trace: SimulationTrace):
    results = {"app": loaded.app_kind, "scenario": scenario_hash(loaded.scenario)}
    if loaded.app_kind == "netsize":
        est = apps.netsize_estimate(trace)
        results["estimates"] = {str(k): v for k, v in sorted(est.per_node.items())}
        results["tail_error"] = est.tail_error
        results["reliable"] = est.reliable
    elif loaded.app_kind == "pagerank":
        results["scores"] = {str(k): v for k, v in sorted(apps.pagerank_scores(trace).items())}
    elif loaded.app_kind == "degseq":
        results["tail_error"], results["reliable"] = apps.rounding_reliability(trace, "degree-sequence estimate")
        seqs = apps.degseq_estimate(trace, loaded.app_cfg)
        results["sequences"] = {str(k): list(v) for k, v in sorted(seqs.items())}
        results["fixed_point"] = apps.degseq_fixed_point(loaded.app_cfg, trace.segments[-1].graph)
    results["events_applied"] = [f"{t}:{ev!r}" for t, ev in trace.events_applied]
    return results


def _json(block) -> str:
    return json.dumps(block, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _first_non_finite(name: str, value):
    """``(name, value)`` of the first NaN or infinity in a JSON block, depth first, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else (name, value)
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        if found := _first_non_finite(f"{name}.{key}", item):
            return found
    return None


def cmd_run(loaded: LoadedScenario) -> int:
    sc = loaded.scenario
    segments, certs = _plan_and_check(sc)
    trace = simulate(sc, segments)

    rep = error_report(trace, norm_constants(segments[-1], certs[-1]))
    frac = fraction_identities(trace, segments[-1])

    results = _results_block(loaded, trace)
    lyap_excess = max((lhs - rhs for _, lhs, rhs in rep.lyapunov_steps), default=0.0)
    report = {
        "scenario": scenario_hash(sc),
        "window": list(rep.window),
        "max_tail_error": rep.max_tail_error,
        "tail_errors": {str(k): v for k, v in sorted(rep.tail_errors.items())},
        "gamma": rep.gamma,
        "eta": rep.eta,
        "evidence_only": rep.evidence_only,
        "lyapunov_max_step_excess": lyap_excess,
        "lyapunov_ok": lyap_excess <= 0.0,
        "fraction_rounds": frac.rounds,
        "fraction_xi1_dev": frac.max_xi1_dev,
        # null: no round recorded its fraction counts, so nothing was checked
        "fraction_xi1_ok": frac.max_xi1_dev <= 1e-12 if frac.rounds else None,
        "fraction_decay_excess": frac.max_decay_excess,
        "fraction_decay_ok": frac.max_decay_excess <= 1e-9 if frac.rounds else None,
    }
    step_by_t = {t: (lhs, rhs) for t, lhs, rhs in rep.lyapunov_steps}
    # lyapunov.csv's last row has no step: its nan, nan is by design and not checked
    rows = {f"t={t}": dict(zip(("V", "dV", "step_bound"), (v, *step_by_t.get(t, ())))) for t, v in rep.lyapunov}
    for name, block in (("results", results), ("report", report), ("lyapunov", rows)):
        if found := _first_non_finite(name, block):
            raise SimulationError(f"{found[0]} = {found[1]!r} is not finite; no output written")

    out = loaded.out_dir
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "trace.csv", "w") as fh:
        trace_to_csv(trace, fh)
    with open(out / "blended.csv", "w") as fh:
        blended_to_csv(trace, fh)
    (out / "results.json").write_text(_json(results))
    (out / "report.json").write_text(_json(report))

    lines = ["t,V,dV,step_bound"]
    for t, v in rep.lyapunov:
        lhs, rhs = step_by_t.get(t, (float("nan"), float("nan")))
        lines.append(f"{t},{v!r},{lhs!r},{rhs!r}")
    (out / "lyapunov.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote trace, blended, results, report to {out}")
    return EXIT_OK


def cmd_kmin(loaded: LoadedScenario, eps: float, mode: str) -> int:
    if not (math.isfinite(eps) and eps > 0.0):
        raise ConfigError(f"--eps {eps!r} is not a positive finite number")
    sc = loaded.scenario
    segments = plan_segments(sc)
    # every window is certified, as in validate and run; K is sized from the first one
    certs = [certify_segment(seg) for seg in segments]
    nc = norm_constants(segments[0], certs[0])
    payload = {"mode": mode, "eps": eps, "gamma": nc.cert.gamma, "lambda2_mag": nc.lambda2_mag}
    if mode == "analytic":
        payload["kmin"] = kmin_analytic(nc, eps)
        payload["eta"] = nc.eta
        payload["M1"] = nc.M1
        payload["Ms"] = nc.steady_offset
    elif mode == "corollary":
        sup_f = estimate_sup_f(nc, eps, sc.initial.radius, seed=sc.seed)
        result = kmin_corollary(nc, eps, sup_f.analytic)
        payload["kmin"] = result.kmin
        payload["eps0"] = result.eps0
        payload["delta"] = result.delta
        payload["sup_f"] = sup_f.analytic
        payload["sup_f_sampled"] = sup_f.sampled
    elif mode == "empirical":
        payload["kmin"] = kmin_empirical(sc, eps, segments=segments)
    else:
        raise ConfigError(f"unknown kmin mode {mode!r}")
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_batch(config_paths, seed_override, out_override) -> int:
    base = Path(out_override) if out_override else None
    for cfg_path in config_paths:
        out = str(base / Path(cfg_path).stem) if base else None
        cmd_run(load_scenario(cfg_path, seed_override=seed_override, out_override=out))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="blendnet", description="Multi-step coupling simulator and analyzer")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="scenario config file")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="seed override")

    p_val = sub.add_parser("validate", help="check graph, weights, and contraction")
    common(p_val)
    p_run = sub.add_parser("run", help="simulate and write trace/report files")
    common(p_run)
    p_kmin = sub.add_parser("kmin", help="compute a sufficient sub-step count")
    common(p_kmin)
    p_kmin.add_argument("--eps", type=float, required=True)
    p_kmin.add_argument("--mode", choices=("analytic", "corollary", "empirical"), default="empirical")
    p_batch = sub.add_parser("batch", help="run several configs")
    p_batch.add_argument("configs", nargs="+")
    p_batch.add_argument("--out", default=None)
    p_batch.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("BLENDNET_LOG", "WARNING").upper())
    args = build_parser().parse_args(argv)
    try:
        if args.command == "batch":
            return cmd_batch(args.configs, args.seed, args.out)
        loaded = load_scenario(args.config, seed_override=args.seed, out_override=args.out)
        if args.command == "validate":
            return cmd_validate(loaded)
        if args.command == "run":
            return cmd_run(loaded)
        if args.command == "kmin":
            return cmd_kmin(loaded, args.eps, args.mode)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, GraphError, WeightError, AssumptionViolation, AnalysisError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (SpectralError, SimulationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

"""blendnet benchmark: one closed-loop client running real CLI operations.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --describe

Each operation is ``blendnet run`` or ``blendnet kmin`` called in-process
through ``blendnet.cli.main`` on config files generated from the seed, one at
a time.  With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it alternates untraced and traced
operations and reports the per-layer metrics.  Every operation's outputs are
checked; the last stdout line is the JSON result.
"""

from __future__ import annotations

import os
import sys

# One client runs one operation at a time, so BLAS gets one thread (never
# more than nproc) rather than contending with the interpreter for the cores.
# It must be set before numpy loads OpenBLAS.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"
MIN_SETUP_SAMPLES = 5
# calibrate()'s seconds on the 2-core Xeon host the benchmark was set up on
CALIBRATION_REF_S = 0.17
SETUP_TIMEOUT_S = 60


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def metric_units(spec: dict) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def describe(spec: dict) -> str:
    """Every metric by name with its unit, end-to-end first."""
    lines = []
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            bound = f" bound={m['bound']}" if "bound" in m else ""
            lines.append(f"{group:10s} {m['name']:40s} {m['unit']:8s} {m['better']}{bound}")
    return "\n".join(lines)


def environment() -> dict:
    import numpy
    import scipy

    def blas_version(mod) -> str:
        deps = mod.show_config(mode="dicts")["Build Dependencies"]
        return str(deps["blas"].get("version", "unknown"))

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_seen": blas_threads_seen(),
    }


def blas_threads_seen() -> list[int]:
    """Thread counts the loaded OpenBLAS libraries report."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    seen = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                seen.append(int(fn()))
                break
    return seen


class Session:
    """Generated inputs plus the closed loop of checked operations on them."""

    def __init__(self, workload: str, seed: int, directory: Path):
        import blendnet.cli
        from workloads import generate

        self.cli = blendnet.cli
        self.inputs = generate(workload, seed, directory)
        self.attempted = 0
        self.failed = 0
        self.reference: str | None = None
        self.reference_ok = False
        self.tail_error: float | None = None
        self.errors: list[str] = []  # failed ops
        self.problems: list[str] = []  # run-level failures outside any op

    def op(self):
        """One operation; returns (seconds, bytes written). Failures are counted."""
        from workloads import OracleError, check_first, output_digest

        out_dir = self.inputs.out_dir
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)
        gc.collect()
        stdout, stderr = io.StringIO(), io.StringIO()
        self.attempted += 1
        rc = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = self.cli.main(list(self.inputs.argv))
        except (Exception, SystemExit):
            stderr.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        written = 0
        try:
            if rc != 0:
                raise OracleError(f"exit code {rc}: {stderr.getvalue().strip()[-2000:]}")
            digest, written = output_digest(self.inputs, stdout.getvalue())
            if self.reference is None:
                self.reference = digest
                self.tail_error = check_first(self.inputs, stdout.getvalue())
                self.reference_ok = True
            elif digest != self.reference:
                raise OracleError("outputs differ from the first operation of this run")
            elif not self.reference_ok:
                raise OracleError("outputs repeat a rejected result")
        except Exception as exc:  # any defect in the outputs fails this op only
            self.failed += 1
            self.errors.append(f"op {self.attempted}: {exc}")
        return seconds, written


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter and numpy work that no program
    change touches; op and set-up times are scaled by it (see timed_run)."""
    import numpy as np

    start = time.perf_counter()
    edges = frozenset((i, (i * 7919) % 1500) for i in range(4000))
    found = sum(len({j for j, i in edges if i == k}) for k in range(80))
    for _ in range(8):
        rows = "\n".join([f"{i},{i % 7},{i * 0.5!r}" for i in range(10000)])
        pairs = [(i, float(i)) for i in range(25000)]
    vals = np.linalg.eigvals(np.add.outer(np.arange(200.0), np.arange(200.0)) % 17.0)
    w = np.full((500, 500), 1.0 / 500.0)
    x = np.ones(500)
    for _ in range(600):
        x = w @ x
    if not (found and rows and pairs and vals.size and x.size):
        raise RuntimeError("calibration did no work")
    return time.perf_counter() - start


def setup_probe(workload: str, seed: int, directory: Path) -> int:
    """Body of one set-up sample: import the program, write the inputs; then
    calibrate (the first run warms OpenBLAS up, the second is reported)."""
    import blendnet.cli  # noqa: F401  (numpy and scipy come with it)
    from workloads import generate

    generate(workload, seed, directory)
    print("ready", flush=True)
    calibrate()
    print(repr(calibrate()), flush=True)
    return 0


def time_setup(workload: str, seed: int, directory: Path) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter until its first op could
    start, and the calibration seconds that interpreter measured next."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH_DIR)]))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--workdir", str(directory)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
        try:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            calibration = proc.stdout.readline()
            rc = proc.wait(timeout=SETUP_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if ready.strip() != "ready" or rc != 0:
        raise RuntimeError(f"set-up probe failed with exit code {rc}")
    return elapsed, float(calibration)


def timed_run(args, workdir: Path) -> tuple[Session, dict, dict]:
    """Set-up probes alternate with the operations: probe, warm-up, probe, op,
    probe, op, ..., probe.

    The host's speed drifts by up to 1.6x over minutes (other tenants), which
    no run length averages out.  Each time is therefore scaled to the
    reference speed by the calibration measured next to it:
    ``t * CALIBRATION_REF_S / calibration``.  A set-up sample uses its own
    probe's calibration, an operation the mean of the probes on either side.
    The raw seconds are printed with the result.
    """
    probes = []

    def probe():
        probes.append(time_setup(args.workload, args.seed, workdir / f"probe{len(probes)}"))

    probe()
    session = Session(args.workload, args.seed, workdir / "run")
    session.op()  # warm-up: OpenBLAS and the import caches initialise lazily
    probe()
    ops = []
    while not ops or sum(ops) < args.seconds:
        ops.append(session.op()[0])
        probe()
    while len(probes) < MIN_SETUP_SAMPLES:
        probe()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cal = [c for _, c in probes]
    op_scaled = [t * CALIBRATION_REF_S / ((cal[k + 1] + cal[k + 2]) / 2) for k, t in enumerate(ops)]
    setup_scaled = [t * CALIBRATION_REF_S / c for t, c in probes]
    metrics = {
        "op_s": statistics.median(op_scaled),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "op_s_raw": ops,
        "op_s_raw_median": statistics.median(ops),
        "setup_s_raw": [t for t, _ in probes],
        "setup_s_raw_median": statistics.median(t for t, _ in probes),
        "calibration_s": cal,
    }
    return session, metrics, detail


def traced_run(args, workdir: Path) -> tuple[Session, dict, dict]:
    import blendnet
    from tracing import SPAN_METRICS, Tracer

    session = Session(args.workload, args.seed, workdir / "run")
    session.op()  # warm-up
    plain, traced, per_op = [], [], []
    names: set[str] = set()

    def traced_op(tracer: Tracer, op_id: int):
        tracer.op_id = op_id
        tracer.install(blendnet)
        try:
            seconds, written = session.op()
        finally:
            tracer.uninstall()
        names.update(tracer.wrapped_names)
        return tracer, seconds, written

    op_id = 0
    while not traced or sum(plain) + sum(traced) < args.seconds:
        # alternate which side goes first so drift does not bias the overhead
        for with_trace in ((False, True) if op_id % 2 == 0 else (True, False)):
            if with_trace:
                tracer, seconds, written = traced_op(Tracer(), op_id)
                metrics = tracer.op_metrics(op_id)
                metrics["cli.output_bytes"] = written
                per_op.append(metrics)
                traced.append(seconds)
            else:
                plain.append(session.op()[0])
        op_id += 1
    memory = Tracer()
    memory.measure_memory = True
    traced_op(memory, -1)

    metrics = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    metrics["simulator.trace_peak_bytes"] = memory.op_metrics(-1)["simulator.trace_peak_bytes"]
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    # a run whose outputs were rejected has no tail error; it reports correct=false
    metrics["analysis.max_tail_error"] = session.tail_error or 0.0

    # every workload calls each of these; zero calls of a function the
    # program still has means a binding was missed
    reported = {m["name"] for m in load_spec()["per_layer"]}
    expected = [f"{m}.calls" for m, (_, fns) in SPAN_METRICS.items() if names.intersection(fns)]
    expected += ["spectral.eigensolve.calls", "graph.neighbor_queries"]
    for name in (n for n in expected if n in reported):
        if not metrics[name]:
            session.problems.append(f"traced run saw no calls for {name}")
    detail = {"op_s_untraced": plain, "op_s_traced": traced}
    return session, metrics, detail


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true", help="list every metric with its unit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    if args.describe:
        print(describe(spec))
        return 0
    if not (SRC / "blendnet" / "__init__.py").is_file():
        print(f"error: blendnet sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: --workload must be one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.seed, Path(args.workdir))
    import blendnet

    if Path(blendnet.__file__).resolve().parent != SRC / "blendnet":
        print(f"error: imported blendnet from {blendnet.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        session, values, detail = (traced_run if args.trace else timed_run)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = metric_units(spec)
    wanted = [m["name"] for m in group]
    missing = sorted(set(wanted) - set(values))
    if missing:
        print(f"error: no value for the metrics {missing} of BENCHMARK.json", file=sys.stderr)
        return 2
    for message in session.errors + session.problems:
        print(f"check failed: {message}", file=sys.stderr)
    detail["error_rate"] = session.failed / session.attempted
    print("env: " + json.dumps(environment(), sort_keys=True))
    print("detail: " + json.dumps(detail))
    result = {
        "correct": session.failed == 0 and not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Contraction certificates, sub-step count bounds, and trace error reports.

The blended map is contractive when its Jacobian J satisfies J' H^2 J <= g H^2
for a positive definite H and g < 1; everything downstream (Lyapunov tracking,
analytic and finite-time sub-step counts, tail error measurement) is built on
that certificate plus the spectral decomposition of the coupling matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .simulator import (
    Scenario,
    Segment,
    SimulationTrace,
    plan_segments,
    simulate,
    transform,
)
from .spectral import SpectralDecomposition


class AnalysisError(ValueError):
    """Raised when a certificate or bound cannot be produced."""


# ---------------------------------------------------------------------------
# contraction certificates


@dataclass(frozen=True)
class ContractionCertificate:
    """Positive definite H and rate gamma with ||H(f(s2)-f(s1))|| <= sqrt(gamma)||H(s2-s1)||.

    ``kind`` is "analytic" for affine maps (a proof) or "sampled" for grid
    evidence; sampled certificates are flagged ``evidence_only`` everywhere.
    """

    H: np.ndarray
    gamma: float
    kind: str

    def __post_init__(self):
        h = np.atleast_2d(np.array(self.H, dtype=float))
        h.setflags(write=False)
        object.__setattr__(self, "H", h)

    @property
    def sqrt_gamma(self) -> float:
        return math.sqrt(self.gamma)

    @property
    def contractive(self) -> bool:
        return self.gamma < 1.0

    @property
    def evidence_only(self) -> bool:
        return self.kind == "sampled"

    def h_inv(self) -> np.ndarray:
        return np.linalg.inv(self.H)


def contraction_affine(a, tol: float = 1e-9) -> ContractionCertificate:
    """Certificate for an affine map with linear part ``a``.

    For normal ``a`` the identity H already achieves gamma equal to the squared
    spectral radius; otherwise candidate H come from discrete Lyapunov solves
    P = B' P B + I, B = a / sqrt(beta), at a grid of target rates beta, and the
    smallest achieved gamma wins.  Each solve is the dense Kronecker system
    (I - kron(B', B')) vec(P) = vec(I), n^2 unknowns, so it is meant for the
    small state dimensions of node maps (a few units), not for n in the tens.
    Every candidate H is checked by recomputing ||H a H^-1||^2, so the solve's
    accuracy never enters the certificate.  The returned gamma carries a tiny
    safety inflation so the certified inequality holds under floating-point
    evaluation.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    n = a.shape[0]
    rho = float(np.max(np.abs(np.linalg.eigvals(a)))) if n else 0.0
    if rho >= 1.0:
        raise AnalysisError(f"linear part has spectral radius {rho:.6g} >= 1; map is not contractive")
    opnorm = float(np.linalg.norm(a, 2)) if n else 0.0
    if opnorm == 0.0:
        return ContractionCertificate(np.eye(max(n, 1)), float(tol), "analytic")
    best_h = np.eye(n)
    best_gamma = opnorm**2
    if best_gamma > rho**2 * (1.0 + 1e-9) + 1e-15:
        # non-normal linear part: search similarity transforms
        lo = rho**2 * 1.02 + 1e-14
        hi = max(min(0.999999, opnorm**2), lo * (1.0 + 1e-6))
        for beta in np.geomspace(lo, hi, num=12):
            bt = a.T / math.sqrt(beta)
            try:
                with np.errstate(all="ignore"):
                    p = np.linalg.solve(np.eye(n * n) - np.kron(bt, bt), np.eye(n).ravel()).reshape(n, n)
            except np.linalg.LinAlgError:
                continue
            p = (p + p.T) / 2.0
            if not np.isfinite(p).all():
                continue
            vals, vecs = np.linalg.eigh(p)
            if vals.min() <= 0:
                continue
            h = vecs @ np.diag(np.sqrt(vals)) @ vecs.T
            h_inv = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T
            achieved = float(np.linalg.norm(h @ a @ h_inv, 2)) ** 2
            if math.isfinite(achieved) and achieved < best_gamma:
                best_gamma = achieved
                best_h = h
    gamma = best_gamma * (1.0 + 1e-9)
    if gamma >= 1.0:
        raise AnalysisError("no positive definite H certifying contraction was found")
    return ContractionCertificate(best_h, gamma, "analytic")


def _fd_jacobian(f, t: int, s: np.ndarray) -> np.ndarray:
    s = np.atleast_1d(np.asarray(s, dtype=float))
    n = len(s)
    jac = np.zeros((n, n))
    for j in range(n):
        h = 1e-6 * (1.0 + abs(s[j]))
        up = s.copy()
        dn = s.copy()
        up[j] += h
        dn[j] -= h
        jac[:, j] = (np.atleast_1d(f(t, up)) - np.atleast_1d(f(t, dn))) / (2.0 * h)
    return jac


def contraction_sampled(f_s, grid, h=None, tol: float = 1e-9) -> ContractionCertificate:
    """Grid evidence for contraction: max ||H J H^-1||^2 over sampled Jacobians.

    This is evidence, not proof; the result is flagged accordingly and may
    report gamma >= 1 (non-contractive on the samples).
    """
    points = list(grid)
    if not points:
        raise AnalysisError("empty sample grid")
    n = len(np.atleast_1d(np.asarray(points[0][1], dtype=float)))
    h = np.eye(n) if h is None else np.atleast_2d(np.asarray(h, dtype=float))
    vals = np.linalg.eigvalsh((h + h.T) / 2.0)
    if vals.min() <= 0:
        raise AnalysisError("H must be symmetric positive definite")
    h_inv = np.linalg.inv(h)
    gamma = 0.0
    for t, s in points:
        jac = _fd_jacobian(f_s, int(t), s)
        gamma = max(gamma, float(np.linalg.norm(h @ jac @ h_inv, 2)) ** 2)
    return ContractionCertificate(h, max(gamma, tol) * (1.0 + 1e-9), "sampled")


@dataclass(frozen=True)
class Lemma4Result:
    ok: bool
    witness: tuple | None = None


def lemma4_check(f_s, cert: ContractionCertificate, samples) -> Lemma4Result:
    """Check ||H(f(t,s2)-f(t,s1))|| <= sqrt(gamma) ||H(s2-s1)|| on sample triples.

    Returns the first falsifying (t, s1, s2) if any.
    """
    h = cert.H
    root = cert.sqrt_gamma
    for t, s1, s2 in samples:
        s1 = np.atleast_1d(np.asarray(s1, dtype=float))
        s2 = np.atleast_1d(np.asarray(s2, dtype=float))
        lhs = float(np.linalg.norm(h @ (np.atleast_1d(f_s(t, s2)) - np.atleast_1d(f_s(t, s1)))))
        rhs = root * float(np.linalg.norm(h @ (s2 - s1)))
        if lhs > rhs:
            return Lemma4Result(False, (t, s1, s2))
    return Lemma4Result(True, None)


# ---------------------------------------------------------------------------
# norm constants


@dataclass(frozen=True)
class NormConstants:
    """Norms of a segment's decomposition and certificate, derived once.

    ``eta`` is twice the Lyapunov-weight threshold L ||q|| ||R|| ||H|| /
    sqrt(gamma) (any value above works, the factor two avoids boundary
    fragility), with 1.0 as fallback when the threshold is zero.
    """

    norm_p: float
    norm_q: float
    norm_r: float
    norm_z: float
    norm_h: float
    norm_h_inv: float
    L: float
    sqrt_gamma: float
    eta: float

    def eps0(self, eps: float) -> float:
        """Tube radius eps / (2 max{||p|| ||H^-1||, ||R||})."""
        return eps / (2.0 * max(self.norm_p * self.norm_h_inv, self.norm_r))

    def delta(self, eps: float) -> float:
        """Complement allowance min{1, (1-sqrt(g)) / (L ||q|| ||R|| ||H||)} * eps0."""
        denom = self.L * self.norm_q * self.norm_r * self.norm_h
        scale = min(1.0, (1.0 - self.sqrt_gamma) / denom) if denom > 0 else 1.0
        return scale * self.eps0(eps)

    def steady_offset(self, n_agents: int, bound_fn) -> float:
        """M_s = sqrt(N) ||q|| ||H^-1|| ||H|| M(0) / (1-sqrt(gamma))."""
        m_s = math.sqrt(n_agents) * self.norm_q * self.norm_h_inv * self.norm_h * float(bound_fn(0.0))
        return m_s / (1.0 - self.sqrt_gamma)


def norm_constants(dec: SpectralDecomposition, cert: ContractionCertificate, lipschitz: float) -> NormConstants:
    """R's columns are orthonormal, so ||R|| = 1; ||Z|| = ||(I - q p')R|| = ||p|| ||q|| (both 0 when N = 1)."""
    norm_p = float(np.linalg.norm(dec.pair.p))
    norm_q = float(np.linalg.norm(dec.pair.q))
    norm_r = 1.0 if dec.n > 1 else 0.0
    norm_h = float(np.linalg.norm(cert.H, 2))
    root = cert.sqrt_gamma
    threshold = lipschitz * norm_q * norm_r * norm_h / root
    return NormConstants(
        norm_p=norm_p,
        norm_q=norm_q,
        norm_r=norm_r,
        norm_z=norm_r * norm_p * norm_q,
        norm_h=norm_h,
        norm_h_inv=float(np.linalg.norm(cert.h_inv(), 2)),
        L=float(lipschitz),
        sqrt_gamma=root,
        eta=2.0 * threshold if threshold > 0 else 1.0,
    )


# ---------------------------------------------------------------------------
# boundedness of the blended reference


@dataclass(frozen=True)
class BlendedBound:
    """Envelope for ||H s[t]||: geometric decay of the start plus a steady offset."""

    cert: ContractionCertificate
    t0: int
    initial: float  # ||H s[t0]||
    drive: float  # sup over tau of ||H f_s(tau, 0)||
    M_s: float | None = None

    def __call__(self, t: int) -> float:
        root = self.cert.sqrt_gamma
        return root ** (t - self.t0) * self.initial + self.drive / (1.0 - root)

    @property
    def limit(self) -> float:
        return self.drive / (1.0 - self.cert.sqrt_gamma)


def blended_bound(
    cert: ContractionCertificate,
    t0: int,
    s_t0,
    sup_norm_hfs0: float,
    norms: NormConstants | None = None,
    n_agents: int | None = None,
    bound_fn=None,
) -> BlendedBound:
    """Bound function t -> sqrt(gamma)^(t-t0) ||H s[t0]|| + sup||H f_s(.,0)|| / (1-sqrt(gamma)).

    When the norm constants, agent count, and the family bound M are supplied
    the asymptotic constant M_s (:meth:`NormConstants.steady_offset`) is
    attached as well.
    """
    if not cert.contractive:
        raise AnalysisError("bound requires a contractive certificate")
    initial = float(np.linalg.norm(cert.H @ np.atleast_1d(np.asarray(s_t0, dtype=float))))
    m_s = None
    if norms is not None and n_agents is not None and bound_fn is not None:
        m_s = norms.steady_offset(n_agents, bound_fn)
    return BlendedBound(cert, t0, initial, float(sup_norm_hfs0), m_s)


# ---------------------------------------------------------------------------
# analytic and finite-time sub-step counts


def family_lipschitz(dynamics) -> float:
    return max(d.lipschitz for d in dynamics)


def family_bound(dynamics):
    maps = tuple(dynamics)

    def bound(r: float) -> float:
        return max(d.bound(r) for d in maps)

    return bound


@dataclass(frozen=True)
class KminConstants(NormConstants):
    """Norm constants plus the remaining inputs of the analytic sub-step count."""

    M1: float
    Ms: float
    lambda2_mag: float
    gamma: float


def kmin_constants(dec: SpectralDecomposition, cert: ContractionCertificate, lipschitz: float, bound_fn) -> KminConstants:
    """Assemble the constants from :func:`norm_constants`, with
    M1 = max{||p|| ||H^-1||, ||R|| / eta} and Ms the steady offset."""
    if not cert.contractive:
        raise AnalysisError("constants require a contractive certificate")
    nc = norm_constants(dec, cert, lipschitz)
    return KminConstants(
        **vars(nc),
        M1=max(nc.norm_p * nc.norm_h_inv, nc.norm_r / nc.eta),
        Ms=nc.steady_offset(dec.n, bound_fn),
        lambda2_mag=dec.pair.lambda2_mag,
        gamma=cert.gamma,
    )


def _smallest_k(lam: float, pairs) -> int:
    """Smallest integer K >= 1 with lam**K * c <= r for every (c, r)."""
    if lam >= 1.0:
        raise AnalysisError(f"subdominant magnitude {lam:.6g} >= 1 violates the assumptions")
    pairs = [(float(c), float(r)) for c, r in pairs]
    for c, r in pairs:
        if c > 0 and r <= 0:
            raise AnalysisError("zero tolerance with a positive coefficient is unreachable")
    if lam <= 0.0:
        return 1

    def holds(k: int) -> bool:
        return all(lam**k * c <= r for c, r in pairs)

    k = 1
    for c, r in pairs:
        if lam * c > r:
            k = max(k, math.ceil(math.log(r / c) / math.log(lam)))
    while not holds(k):
        k += 1
    while k > 1 and holds(k - 1):
        k -= 1
    return k


def kmin_analytic(consts: KminConstants, eps: float, n_agents: int, bound_fn) -> int:
    """Smallest K with lam2^K eta L M1 ||Z|| <= (1-sqrt(g))/2 and
    lam2^K 2 eta M1 M(||p|| Ms) sqrt(N) ||Z|| / (1-sqrt(g)) <= eps/2."""
    root = math.sqrt(consts.gamma)
    c1 = consts.eta * consts.L * consts.M1 * consts.norm_z
    r1 = (1.0 - root) / 2.0
    c2 = 2.0 * consts.eta * consts.M1 * float(bound_fn(consts.norm_p * consts.Ms)) * math.sqrt(n_agents) * consts.norm_z
    c2 /= 1.0 - root
    r2 = eps / 2.0
    return _smallest_k(consts.lambda2_mag, [(c1, r1), (c2, r2)])


@dataclass(frozen=True)
class CorollaryKmin:
    eps0: float
    delta: float
    kmin: int


def kmin_corollary(
    dec: SpectralDecomposition,
    cert: ContractionCertificate,
    eps: float,
    lipschitz: float,
    sup_f: float,
) -> CorollaryKmin:
    """Finite-time sub-step count from a bound on ||F|| over the reachable set.

    eps0 = eps / (2 max{||p|| ||H^-1||, ||R||}),
    delta = min{1, (1-sqrt(g)) / (L ||q|| ||R|| ||H||)} * eps0, and K is the
    smallest integer with lam2^K ||Z|| sup_f <= delta.
    """
    if not cert.contractive:
        raise AnalysisError("finite-time bound requires a contractive certificate")
    nc = norm_constants(dec, cert, lipschitz)
    delta = nc.delta(eps)
    kmin = _smallest_k(dec.pair.lambda2_mag, [(nc.norm_z * float(sup_f), delta)])
    return CorollaryKmin(nc.eps0(eps), delta, kmin)


@dataclass(frozen=True)
class SupFEstimate:
    """Bound on ||F|| over the reachable tube: analytic envelope plus grid evidence."""

    analytic: float
    sampled: float
    node_radius: float


def estimate_sup_f(
    dynamics,
    dec: SpectralDecomposition,
    cert: ContractionCertificate,
    eps: float,
    init_radius: float,
    seed: int = 0,
    samples: int = 200,
) -> SupFEstimate:
    """Estimate sup ||F(t, xbar)|| over states compatible with the invariant tube.

    The per-node radius combines the initial box with |p_i| times the blended
    envelope inflated by eps0, plus the complement allowance delta; the
    declared bound function turns the radius into the analytic value, and a
    seeded random sample of tube states cross-checks it from below.
    """
    maps = tuple(dynamics)
    bound_fn = family_bound(maps)
    n_agents = dec.n
    nc = norm_constants(dec, cert, family_lipschitz(maps))
    eps0 = nc.eps0(eps)
    delta = nc.delta(eps)
    # reference states s[t] stay within the start bound plus the steady offset
    spread = nc.norm_h_inv * nc.norm_h * nc.norm_q * math.sqrt(n_agents)
    s_start = spread * float(bound_fn(init_radius))
    s_bound = s_start + spread * float(bound_fn(0.0)) / (1.0 - nc.sqrt_gamma)
    p_max = float(np.max(np.abs(dec.pair.p)))
    row_r = float(np.max(np.linalg.norm(dec.R, axis=1))) if dec.R.size else 0.0
    node_radius = max(p_max * (s_bound + nc.norm_h_inv * eps0) + row_r * delta, init_radius)
    analytic = math.sqrt(n_agents) * float(bound_fn(node_radius))

    rng = np.random.default_rng([seed, 0x5F])
    # affine maps declare the state dimension; other maps are sampled as scalar
    n_dim = len(maps[0].affine[1]) if maps[0].affine is not None else 1
    sampled = 0.0
    for _ in range(samples):
        s_val = rng.uniform(-s_bound, s_bound, size=n_dim)
        s_norm = float(np.linalg.norm(s_val))
        if s_norm > s_bound:  # a box corner outside the tube (n > 1 only)
            s_val *= s_bound / s_norm
        e_val = rng.uniform(-1.0, 1.0, size=n_dim)
        e_val *= eps0 * nc.norm_h_inv / max(1.0, float(np.linalg.norm(e_val)))
        xi_t = rng.uniform(-1.0, 1.0, size=(max(n_agents - 1, 0), n_dim))
        nrm = float(np.linalg.norm(xi_t))
        if nrm > 0:
            xi_t *= delta / nrm
        xbar = np.outer(dec.pair.p, s_val + e_val) + (dec.R @ xi_t if dec.R.size else 0.0)
        total = 0.0
        for d, x in zip(maps, np.atleast_2d(xbar)):
            total += float(np.linalg.norm(np.atleast_1d(d.update(0, x)))) ** 2
        sampled = max(sampled, math.sqrt(total))
    return SupFEstimate(analytic, sampled, node_radius)


# ---------------------------------------------------------------------------
# trace measurement


def tail_window(t_start: int, t_end: int, fraction: float = 0.25, min_steps: int = 10) -> tuple[int, int]:
    """Last `fraction` of [t_start, t_end], at least min_steps integer counts; `fraction` in (0, 1]."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"tail fraction {fraction!r} outside (0, 1]")
    span = t_end - t_start + 1
    length = min(span, max(min_steps, int(round(fraction * span))))
    return (t_end - length + 1, t_end)


def _segment_analysis_range(trace: SimulationTrace, seg: Segment) -> tuple[int, int]:
    # the blended reference is (re)seeded one count after a membership change
    start = seg.t_start + 1 if seg.t_start > 0 else 1
    return (start, seg.t_end)


def measure_tail_error(
    trace: SimulationTrace,
    segment: Segment | None = None,
    tail_fraction: float | None = None,
) -> tuple[float, dict[int, float], tuple[int, int]]:
    """Per-node sup over the tail window of ||x_i[t] - p_i s[t]||."""
    seg = segment if segment is not None else trace.segments[-1]
    fraction = trace.scenario.tail_fraction if tail_fraction is None else tail_fraction
    t_lo, t_hi = _segment_analysis_range(trace, seg)
    if t_hi < t_lo:
        raise AnalysisError("segment too short for a tail window")
    w_lo, w_hi = tail_window(t_lo, t_hi, fraction)
    worst = np.zeros(seg.graph.n)
    for t in range(w_lo, w_hi + 1):
        x = trace.state_at(t, 0).values
        worst = np.maximum(worst, np.linalg.norm(x - np.outer(seg.pair.p, trace.blended_at(t)), axis=1))
    per_node = dict(zip(seg.graph.nodes, worst.tolist()))
    return max(per_node.values()), per_node, (w_lo, w_hi)


def kmin_empirical(
    scenario: Scenario,
    eps: float,
    tail_fraction: float | None = None,
    k_max: int = 4096,
    segments: tuple[Segment, ...] | None = None,
) -> int:
    """Smallest K whose simulated tail error is at most eps (doubling + bisection).

    The search contract guarantees the returned K passes and K-1 fails (when
    the result is above 1); the predicate need not be monotone for this to
    hold.  The scenario is planned once (or ``segments`` is its plan) and
    every probe reuses that plan.
    """
    if segments is None:
        segments = plan_segments(scenario)

    def tail_err(k: int) -> float:
        trace = simulate(replace(scenario, K=k), segments)
        return measure_tail_error(trace, tail_fraction=tail_fraction)[0]

    if tail_err(1) <= eps:
        return 1
    lo, hi = 1, 2
    while tail_err(hi) > eps:
        lo = hi
        hi *= 2
        if hi > k_max:
            raise AnalysisError(f"no K <= {k_max} reaches tail error {eps}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tail_err(mid) <= eps:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class FractionReport:
    """Fraction-count identities measured on a trace segment.

    ``max_xi1_dev`` is the worst relative deviation of xi1[t_k] from
    xi1[(t+1)_0] over k = 1..K-1; ``max_decay_excess`` is the worst value of
    ||xitilde[t_k]|| sigma^(K-k) - ||xitilde[t+1]|| with sigma = sigma_min(Lam)
    (nonpositive when the geometric decay envelope holds).
    """

    max_xi1_dev: float
    max_decay_excess: float
    rounds: int


def fraction_identities(trace: SimulationTrace, dec: SpectralDecomposition, segment: Segment | None = None) -> FractionReport:
    seg = segment if segment is not None else trace.segments[-1]
    subs, nxt = trace.fractions(seg)  # (rounds, K-1, N, n), (rounds, N, n)
    rounds = len(subs)
    if rounds == 0:
        return FractionReport(0.0, 0.0, 0)
    q, zt = dec.pair.q, dec.Z.T
    ref = q @ nxt  # xi1[(t+1)_0], (rounds, n)
    scale = np.maximum(1.0, np.max(np.abs(ref), axis=1))
    dev = np.max(np.abs(q @ subs - ref[:, None]), axis=(1, 2)) / scale
    max_excess = 0.0
    floor = dec.lam_floor
    if floor > 1e-12:
        k_steps = trace.scenario.K
        norm_next = np.linalg.norm(zt @ nxt, axis=(1, 2))
        norm_sub = np.linalg.norm(zt @ subs, axis=(2, 3))
        envelope = floor ** np.arange(k_steps - 1, 0, -1, dtype=float)  # sigma^(K-k), k = 1..K-1
        max_excess = float(np.max(norm_sub * envelope - norm_next[:, None]))
    return FractionReport(max(0.0, float(np.max(dev))), max_excess, rounds)


# ---------------------------------------------------------------------------
# error report


@dataclass(frozen=True)
class ErrorReport:
    """Tail errors, fractional-step errors with their bounds, and the Lyapunov series.

    ``fractional[r, k-1, i]`` is ||x_i[t_k] - p_i s[t+1]|| for the segment's
    round t = t_start + r and k = 1..K-1 (no rounds unless every fraction
    count was recorded); ``fractional_bound[k-1]`` is (eps/2)(1 + sigma^-(K-k))
    with sigma = sigma_min(Lam), or None without eps or with sigma ~ 0.
    ``lyapunov_steps`` holds (t, V[t+1]-V[t], rhs) where rhs is the one-step
    ultimate bound -(1-sqrt(g))/2 V[t] + lam2^(K-1) eta ||Z|| ||F(t, p s[t])||.
    """

    window: tuple[int, int]
    tail_errors: dict[int, float]
    max_tail_error: float
    fractional: np.ndarray
    fractional_bound: np.ndarray | None
    lyapunov: tuple[tuple[int, float], ...]
    lyapunov_steps: tuple[tuple[int, float, float], ...]
    eta: float
    gamma: float
    evidence_only: bool


def error_report(
    trace: SimulationTrace,
    pair,
    dec: SpectralDecomposition,
    cert: ContractionCertificate,
    eps: float | None = None,
    segment: Segment | None = None,
) -> ErrorReport:
    """Measure a trace against the blended reference.

    Requires the trace's blended series; fractional rows are only present when
    the trace recorded every fraction count.  The Lyapunov weight is the eta
    of :func:`norm_constants` for the segment's dynamics.
    """
    if not len(trace.blended):
        raise AnalysisError("trace has no blended reference")
    if not cert.contractive:
        raise AnalysisError("error report requires a contractive certificate")
    seg = segment if segment is not None else trace.segments[-1]
    max_err, per_node, window = measure_tail_error(trace, segment=seg)

    k_steps = trace.scenario.K
    lam2 = pair.lambda2_mag
    h = cert.H
    root = cert.sqrt_gamma
    nc = norm_constants(dec, cert, family_lipschitz(seg.dynamics))

    t_lo, t_hi = _segment_analysis_range(trace, seg)
    subs, _ = trace.fractions(seg)
    s_next = trace.blended[seg.t_start : seg.t_start + len(subs)]  # s[t+1] of round t
    fractional = np.linalg.norm(subs - pair.p[:, None] * s_next[:, None, None, :], axis=-1)
    bound = None
    if eps is not None and (floor := dec.lam_floor) > 1e-12:
        bound = (eps / 2.0) * (1.0 + floor ** -np.arange(k_steps - 1, 0, -1, dtype=float))

    lyapunov: list[tuple[int, float]] = []
    v_by_t: dict[int, float] = {}
    for t in range(t_lo, t_hi + 1):
        state = trace.state_at(t, 0)
        ts = transform(state, dec)
        e_t = np.atleast_1d(ts.xi1) - trace.blended_at(t)
        v = float(np.linalg.norm(h @ e_t)) + nc.eta * float(np.linalg.norm(ts.xitilde))
        lyapunov.append((t, v))
        v_by_t[t] = v

    steps: list[tuple[int, float, float]] = []
    for t in range(t_lo, t_hi):
        if t not in v_by_t or (t + 1) not in v_by_t:
            continue
        s_t = trace.blended_at(t)
        total = 0.0
        for d, p_i in zip(seg.dynamics, pair.p):
            total += float(np.linalg.norm(np.atleast_1d(d.update(t, p_i * s_t)))) ** 2
        rhs = -(1.0 - root) / 2.0 * v_by_t[t] + lam2 ** (k_steps - 1) * nc.eta * nc.norm_z * math.sqrt(total)
        steps.append((t, v_by_t[t + 1] - v_by_t[t], rhs))

    return ErrorReport(
        window=window,
        tail_errors=per_node,
        max_tail_error=max_err,
        fractional=fractional,
        fractional_bound=bound,
        lyapunov=tuple(lyapunov),
        lyapunov_steps=tuple(steps),
        eta=nc.eta,
        gamma=cert.gamma,
        evidence_only=cert.evidence_only,
    )

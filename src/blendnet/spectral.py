"""Perron pair and spectral decomposition of coupling matrices.

For a valid coupling matrix W the unit eigenvalue is simple and strictly
dominant, with positive right/left eigenvectors p and q.  The decomposition

    W = [p R] * blkdiag(1, Lam) * [q' ; Z']

splits the state space into the consensus direction and its complement, where
Z'R = I, Z'p = 0, R'q = 0 and Lam carries the subdominant eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .weights import WeightMatrix

_STOCHASTIC_TOL = 1e-9


class SpectralError(RuntimeError):
    """Power iteration failure or an invalid/rank-deficient decomposition."""


@dataclass(frozen=True)
class PerronPair:
    """Positive right/left unit-eigenvalue eigenvectors with q'p = 1."""

    p: np.ndarray
    q: np.ndarray
    lambda2_mag: float
    lambdaN_mag: float

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        q = np.array(self.q, dtype=float)
        p.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def scaled(self, c: float) -> "PerronPair":
        """The equivalent pair (c*p, q/c); node-level predictions are unchanged."""
        if c <= 0:
            raise ValueError("scaling constant must be positive")
        return PerronPair(self.p * c, self.q / c, self.lambda2_mag, self.lambdaN_mag)


@dataclass(frozen=True)
class SpectralDecomposition:
    pair: PerronPair
    R: np.ndarray
    Z: np.ndarray
    Lam: np.ndarray

    def __post_init__(self):
        for name in ("R", "Z", "Lam"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.R.shape[0]

    @property
    def lam_floor(self) -> float:
        """sigma_min(Lam), so ||Lam^m x|| >= lam_floor^m ||x|| for every x, normal Lam or not."""
        return float(np.linalg.svd(self.Lam, compute_uv=False)[-1]) if self.n > 1 else 0.0


def _entries(w) -> np.ndarray:
    if isinstance(w, WeightMatrix):
        return w.entries
    return np.asarray(w, dtype=float)


def eigen_magnitudes(w) -> np.ndarray:
    """All eigenvalue magnitudes via dense eigensolve, sorted descending."""
    return np.sort(np.abs(np.linalg.eigvals(_entries(w))))[::-1]


def _power_iteration(a: np.ndarray, tol: float, max_iters: int) -> np.ndarray:
    """Iterate v <- A v / sum(A v) from the all-ones start until ||A v - v|| <= tol.

    The unit eigenvalue is assumed, so the raw residual against eigenvalue 1
    is the convergence measure; failure to shrink it signals an invalid input.
    """
    n = a.shape[0]
    v = np.ones(n) / n
    for _ in range(max_iters):
        w = a @ v
        if np.max(np.abs(w - v)) <= tol:
            return w / w.sum()
        s = w.sum()
        if not np.isfinite(s) or s <= 0:
            raise SpectralError("power iteration collapsed; input violates nonnegativity")
        v = w / s
    raise SpectralError(f"power iteration did not converge within {max_iters} iterations")


def perron_pair(w: WeightMatrix, tol: float = 1e-13, max_iters: int = 200_000, magnitudes=None) -> PerronPair:
    """Compute (p, q) by power iteration on W and W', then normalize.

    Canonical scaling: row-stochastic matrices get p equal to all-ones with q
    summing to one; column-stochastic matrices get q equal to all-ones with p
    summing to one; otherwise p is scaled to sum one and q to satisfy q'p = 1.
    ``magnitudes`` (sorted descending, e.g. from a weight validation report)
    spares the dense eigensolve for the subdominant magnitudes.
    """
    a = _entries(w)
    n = a.shape[0]
    p = _power_iteration(a, tol, max_iters)
    q = _power_iteration(a.T, tol, max_iters)
    if p.min() <= 1e-12 * p.max() or q.min() <= 1e-12 * q.max():
        raise SpectralError(
            "computed eigenvector is not positive; the matrix does not satisfy the "
            "connectivity/positivity assumptions"
        )
    ones = np.ones(n)
    row_stochastic = np.max(np.abs(a @ ones - ones)) <= _STOCHASTIC_TOL
    column_stochastic = np.max(np.abs(ones @ a - ones)) <= _STOCHASTIC_TOL
    # a pagerank matrix that happens to be doubly stochastic keeps its own
    # convention (q all-ones, p summing to one)
    prefer_column = isinstance(w, WeightMatrix) and w.kind == "pagerank"
    if column_stochastic and (prefer_column or not row_stochastic):
        q = ones
        p = p / p.sum()
    elif row_stochastic:
        p = ones
        q = q / q.sum()
    else:
        p = p / p.sum()
        q = q / float(q @ p)
    mags = eigen_magnitudes(a) if magnitudes is None else magnitudes
    lam2 = float(mags[1]) if n > 1 else 0.0
    lamN = float(mags[-1]) if n > 1 else 0.0
    return PerronPair(p, q, lam2, lamN)


def decompose(w: WeightMatrix, pair: PerronPair) -> SpectralDecomposition:
    """Build R, Z, Lam so that W reconstructs from the Perron pair exactly.

    R is an orthonormal basis of the complement of span(q) obtained from a
    Householder reflector (deterministic); Z comes from the matrix inverse of
    [p R], which pins Z'R = I and Z'p = 0.  Lam = Z' W R is real but not
    necessarily diagonal; its eigenvalues are the subdominant ones.
    """
    a = _entries(w)
    q = pair.q
    p = pair.p
    n = len(q)
    u = q.astype(float).copy()
    u[0] += np.linalg.norm(q)  # q > 0, so no cancellation
    reflector = np.eye(n) - 2.0 * np.outer(u, u) / float(u @ u)
    r = reflector[:, 1:]
    m = np.column_stack([p, r])
    try:
        m_inv = np.linalg.solve(m, np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise SpectralError("complement basis is rank deficient") from exc
    if np.max(np.abs(m_inv[0] - q)) > 1e-8 * (1.0 + np.max(np.abs(q))):
        raise SpectralError("pair is inconsistent with the matrix (q'p != 1?)")
    z = m_inv[1:, :].T
    lam = z.T @ a @ r
    return SpectralDecomposition(pair, r, z, lam)


def decomposition_to_csv(dec: SpectralDecomposition) -> str:
    """Debug dump: p, q, then the R, Z, Lam blocks, row-major."""
    lines = ["block,row,values"]

    def emit(name, arr):
        arr = np.atleast_2d(arr)
        for i, row in enumerate(arr):
            lines.append(f"{name},{i}," + " ".join(repr(float(x)) for x in np.atleast_1d(row)))

    emit("p", dec.pair.p[None, :])
    emit("q", dec.pair.q[None, :])
    emit("R", dec.R)
    emit("Z", dec.Z)
    emit("Lam", dec.Lam)
    return "\n".join(lines) + "\n"

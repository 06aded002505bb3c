"""Perron pair and spectral decomposition of coupling matrices.

For a valid coupling matrix W the unit eigenvalue is simple and strictly
dominant, with positive right/left eigenvectors p and q.  The decomposition

    W = [p R] * blkdiag(1, Lam) * [q' ; Z']

splits the state space into the consensus direction and its complement, where
Z'R = I, Z'p = 0, R'q = 0 and Lam carries the subdominant eigenvalues.

Every piece has a closed form.  p is the null vector of I - W normalised by
1'p = 1, found with one linear solve (q likewise from W'); R is the
orthonormal complement of q from a Householder reflector; with q'p = 1 and
q'R = 0, Z = R - q p'R and Lam = R'WR, so ||R|| = 1 and ||Z|| = ||p|| ||q||.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .weights import WeightMatrix

_STOCHASTIC_TOL = 1e-9


class SpectralError(RuntimeError):
    """No positive unit eigenvector, or a pair that violates q'p = 1."""


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


def _unit_eigenvector(a: np.ndarray) -> np.ndarray:
    """The v with A v = v and 1'v = 1: solve I - A with its last row replaced by 1' against e_N."""
    n = a.shape[0]
    m = np.eye(n) - a
    m[-1] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        v = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        raise SpectralError("unit eigenvalue is not simple, or its eigenvector sums to zero") from exc
    residual = float(np.max(np.abs(a @ v - v)))
    if not np.isfinite(v).all() or residual > 1e-9 * np.max(np.abs(v)):
        raise SpectralError(f"matrix has no unit eigenvector (solve residual {residual!r})")
    return v


def perron_pair(w: WeightMatrix, magnitudes=None) -> PerronPair:
    """Compute (p, q) with one linear solve per non-stochastic side, then normalize.

    A row-stochastic W has p along all-ones and a column-stochastic W has q
    along all-ones; any other side comes from :func:`_unit_eigenvector`.
    Canonical scaling: row-stochastic matrices get p equal to all-ones with q
    summing to one; column-stochastic matrices get q equal to all-ones with p
    summing to one; otherwise p is scaled to sum one and q to satisfy q'p = 1.
    ``magnitudes`` (sorted descending, e.g. from a weight validation report)
    spares the dense eigensolve for the subdominant magnitudes.
    """
    a = _entries(w)
    n = a.shape[0]
    ones = np.ones(n)
    row_stochastic = np.max(np.abs(a @ ones - ones)) <= _STOCHASTIC_TOL
    column_stochastic = np.max(np.abs(ones @ a - ones)) <= _STOCHASTIC_TOL
    p = ones if row_stochastic else _unit_eigenvector(a)
    q = ones if column_stochastic else _unit_eigenvector(a.T)
    if p.min() <= 1e-12 * p.max() or q.min() <= 1e-12 * q.max():
        raise SpectralError(
            "computed eigenvector is not positive; the matrix does not satisfy the "
            "connectivity/positivity assumptions"
        )
    # a pagerank matrix that happens to be doubly stochastic keeps its own
    # convention (q all-ones, p summing to one)
    prefer_column = isinstance(w, WeightMatrix) and w.kind == "pagerank"
    if column_stochastic and (prefer_column or not row_stochastic):
        p = p / p.sum()
    elif row_stochastic:
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

    R = H[:, 1:] for the Householder reflector H = I - beta u u' that maps q
    onto the first axis (deterministic, orthonormal, R'q = 0).  Given q'p = 1,
    Z = R - q (p'R) pins Z'R = I and Z'p = 0, and since q'W = q',
    Lam = Z'WR = R'WR = (HWH)[1:, 1:], two rank-one updates of W.  Lam is real
    but not necessarily diagonal; its eigenvalues are the subdominant ones.
    """
    a = _entries(w)
    q = pair.q
    p = pair.p
    n = len(q)
    qp = float(q @ p)
    if abs(qp - 1.0) > 1e-8:
        raise SpectralError(f"pair is inconsistent: q'p = {qp!r}, expected 1")
    u = q.copy()
    u[0] += np.linalg.norm(q)  # q > 0, so no cancellation
    beta = 2.0 / float(u @ u)
    r = (np.eye(n) - beta * np.outer(u, u))[:, 1:]
    z = r - np.outer(q, p @ r)
    wu, uw, v = a @ u, u @ a, u[1:]
    lam = (
        a[1:, 1:]
        - beta * (np.outer(wu[1:], v) + np.outer(v, uw[1:]))
        + beta * beta * float(u @ wu) * np.outer(v, v)
    )
    return SpectralDecomposition(pair, r, z, lam)

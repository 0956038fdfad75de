"""Gelfand-Cetlin eigenvalue map and the disk-potential critical-point solver.

A point of Gr(k, n) is presented by an orthonormal frame U (n x k); the
projection A = U U^dagger has eigenvalue-1 multiplicity k, and the sorted
spectra of its leading principal submatrices assemble into the
Gelfand-Cetlin map. The disk potential W of the monotone torus fibre is a
Laurent polynomial in positive coordinates z_{i,j}. In logarithmic
coordinates u = log z its monomials are exp(t . u) over the exponent
vectors t of _terms, and W, its gradient, the Newton step, the line search
and the solver's report all read them from _monomials. W is smooth and
strictly convex there, and Newton iteration with backtracking finds its
unique critical point, where W = n sin(k pi/n) / sin(pi/n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagram import GrContext

ORTHO_TOL = 1e-12
CONST_EIG_TOL = 1e-9
MAX_NEWTON_STEPS = 200


class ConvergenceError(RuntimeError):
    """The critical-point iteration failed to converge (indicates a bug)."""


@dataclass(frozen=True, eq=False)
class Frame:
    """Orthonormal n x k frame representing a point of Gr(k, n)."""

    ctx: GrContext
    u: np.ndarray

    def __post_init__(self):
        n, k = self.ctx.n, self.ctx.k
        if self.u.shape != (n, k):
            raise ValueError(f"frame must be {n} x {k}, got {self.u.shape}")
        gram = self.u.conj().T @ self.u
        if np.max(np.abs(gram - np.eye(k))) > ORTHO_TOL:
            raise ValueError("frame columns are not orthonormal")

    def projection(self) -> np.ndarray:
        return self.u @ self.u.conj().T


@dataclass(frozen=True, eq=False)
class GcValues:
    """Gelfand-Cetlin values z_{i,j} = lambda_i^(i+j-1), as a k x (n-k) grid."""

    ctx: GrContext
    grid: np.ndarray

    def value(self, i: int, j: int) -> float:
        """1-based indices, i in 1..k, j in 1..n-k."""
        return float(self.grid[i - 1, j - 1])

    def interlacing_violation(self) -> float:
        """Worst violation of z_{i,j+1} >= z_{i,j} >= z_{i+1,j} (0 when clean)."""
        g = self.grid
        if g.size == 0:  # Gr(n, n): no values, nothing to interlace
            return 0.0
        worst = 0.0
        if g.shape[1] > 1:
            worst = max(worst, float(np.max(g[:, :-1] - g[:, 1:])))
        if g.shape[0] > 1:
            worst = max(worst, float(np.max(g[1:, :] - g[:-1, :])))
        return max(worst, 0.0)


@dataclass(frozen=True, eq=False)
class GcPoint:
    """Strictly positive coordinates z_{i,j} for the disk potential."""

    ctx: GrContext
    z: np.ndarray

    def __post_init__(self):
        k, cols = self.ctx.k, self.ctx.cols
        if self.z.shape != (k, cols):
            raise ValueError(f"point must be {k} x {cols}")
        if np.any(self.z <= 0):
            raise ValueError("coordinates must be strictly positive")

    def value(self, i: int, j: int) -> float:
        return float(self.z[i - 1, j - 1])


def random_frame(ctx: GrContext, seed: int) -> Frame:
    """Seeded complex Gaussian matrix, orthonormalized."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((ctx.n, ctx.k)) + 1j * rng.standard_normal((ctx.n, ctx.k))
    q, _ = np.linalg.qr(raw)
    return Frame(ctx, q[:, : ctx.k])


def quaternionic_structure(v: np.ndarray) -> np.ndarray:
    """The antiunitary J: conjugate, then map each coordinate pair (a, b) at
    (2t, 2t+1) to (-b, a); a last odd coordinate maps to 0."""
    jv = np.zeros_like(v)
    m = len(v) // 2 * 2
    jv[:m:2], jv[1:m:2] = -v[1:m:2].conj(), v[:m:2].conj()
    return jv


def quaternionic_frame(ctx: GrContext, seed: int) -> Frame:
    """Frame of the form [X_1, J X_1, ..., X_{k/2}, J X_{k/2}].

    Each X_i is drawn from a seeded complex Gaussian and orthonormalized
    against all previously accepted columns; J X is then automatically
    orthonormal to all of them, so the J-pairing is preserved exactly.
    """
    n, k = ctx.n, ctx.k
    if n % 2 or k % 2:
        raise ValueError("quaternionic frames need k and n even")
    rng = np.random.default_rng(seed)
    columns: list[np.ndarray] = []
    while len(columns) < k:
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for c in columns:
            x = x - c * np.vdot(c, x)
        norm = np.linalg.norm(x)
        if norm < 1e-8:  # pragma: no cover - essentially impossible draw
            continue
        x = x / norm
        jx = quaternionic_structure(x)
        for c in columns + [x]:
            jx = jx - c * np.vdot(c, jx)
        jx = jx / np.linalg.norm(jx)
        columns.extend([x, jx])
    return Frame(ctx, np.column_stack(columns))


def gc_map(frame: Frame) -> GcValues:
    """Eigenvalues of leading principal submatrices of UU^dagger, arranged
    as z_{i,j} = lambda_i^(i+j-1); the constant eigenvalues (1 above the
    staircase, 0 below) are asserted within tolerance."""
    ctx = frame.ctx
    n, k = ctx.n, ctx.k
    a = frame.projection()
    spectra = [None] * (n + 1)
    for r in range(1, n + 1):
        spectra[r] = np.sort(np.linalg.eigvalsh(a[:r, :r]))[::-1]
    for r in range(1, n + 1):
        for i in range(1, r + 1):
            lam = spectra[r][i - 1]
            if i + n - r <= k and abs(lam - 1.0) > CONST_EIG_TOL:
                raise AssertionError(f"constant eigenvalue 1 violated at (i={i}, r={r}): {lam}")
            if i >= k + 1 and abs(lam) > CONST_EIG_TOL:
                raise AssertionError(f"constant eigenvalue 0 violated at (i={i}, r={r}): {lam}")
    grid = np.empty((k, ctx.cols))
    for i in range(1, k + 1):
        for j in range(1, ctx.cols + 1):
            grid[i - 1, j - 1] = spectra[i + j - 1][i - 1]
    return GcValues(ctx, grid)


# ---------------------------------------------------------------------------
# disk potential


def _terms(ctx: GrContext) -> np.ndarray:
    """Exponent vectors of the potential's Laurent monomials, flattened k*(n-k)."""
    k, cols = ctx.k, ctx.cols
    dim = k * cols

    def unit(i, j):
        v = np.zeros(dim)
        v[(i - 1) * cols + (j - 1)] = 1.0
        return v

    rows = []
    for i in range(1, k):
        for j in range(1, cols + 1):
            rows.append(unit(i, j) - unit(i + 1, j))
    for i in range(1, k + 1):
        for j in range(1, cols):
            rows.append(unit(i, j + 1) - unit(i, j))
    rows.append(-unit(1, cols))
    rows.append(unit(k, 1))
    return np.array(rows)


def _monomials(t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """exp(t . u) over the rows t of _terms at log coordinates u = log z: the
    potential's monomials. W is their sum, and grad_u W = t^T exp(t . u)."""
    return np.exp(t @ u)


def potential_eval(ctx: GrContext, point: GcPoint) -> float:
    """W(z), the sum of its monomials: ratio grid down, ratio grid right,
    1/z_{1,n-k}, and z_{k,1}."""
    return float(_monomials(_terms(ctx), np.log(point.z).reshape(-1)).sum())


def potential_grad(ctx: GrContext, point: GcPoint) -> np.ndarray:
    """Analytic gradient dW/dz = (grad_u W) / z as a k x (n-k) array."""
    t = _terms(ctx)
    z = point.z.reshape(-1)
    return (t.T @ _monomials(t, np.log(z)) / z).reshape(point.z.shape)


def find_critical_point(ctx: GrContext, tol: float = 1e-8) -> tuple[GcPoint, dict]:
    """Minimize the potential in logarithmic coordinates by damped Newton.

    In u = log z the potential is a sum of exponentials of affine forms, so
    it is smooth and convex and the Hessian stays positive definite along
    the iteration; the unique interior minimum is the critical point. The
    report's W and gradInf are those of the last Newton evaluation.
    """
    if not np.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if ctx.cols == 0:
        raise ValueError(f"{ctx} is a point: the disk potential has no variables")
    t = _terms(ctx)
    u = np.zeros(t.shape[1])
    history = []
    for iters in range(1, MAX_NEWTON_STEPS + 1):
        vals = _monomials(t, u)
        grad_u = t.T @ vals
        grad_z = grad_u / np.exp(u)
        base = float(vals.sum())
        history.append({"W": base, "gradInf": float(np.max(np.abs(grad_z)))})
        if np.max(np.abs(grad_z)) < tol and np.max(np.abs(grad_u)) < tol:
            break
        hess = t.T @ (t * vals[:, None])
        np.linalg.cholesky(hess)  # convexity certificate: must be positive definite
        step = np.linalg.solve(hess, -grad_u)
        slope = float(grad_u @ step)
        scale = 1.0
        while _monomials(t, u + scale * step).sum() > base + 0.25 * scale * slope and scale > 1e-12:
            scale *= 0.5
        u = u + scale * step
    else:
        raise ConvergenceError(f"no convergence after {MAX_NEWTON_STEPS} Newton steps")

    z = np.exp(u).reshape(ctx.k, ctx.cols)
    report = {
        "z": {f"{i + 1},{j + 1}": float(z[i, j]) for i in range(ctx.k) for j in range(ctx.cols)},
        **history[-1],
        "iters": iters,
        "history": history,
    }
    return GcPoint(ctx, z), report


def gc_csv_rows(ctx: GrContext, seeds: list[int], quaternionic: bool = False) -> list[str]:
    """CSV export for batches of Gelfand-Cetlin values, one row per seed."""
    header = ["seed"] + [f"z{i + 1}_{j + 1}" for i in range(ctx.k) for j in range(ctx.cols)]
    rows = [",".join(header)]
    for seed in seeds:
        frame = quaternionic_frame(ctx, seed) if quaternionic else random_frame(ctx, seed)
        values = gc_map(frame)
        cells = [str(seed)] + [
            f"{values.grid[i, j]:.12f}" for i in range(ctx.k) for j in range(ctx.cols)
        ]
        rows.append(",".join(cells))
    return rows

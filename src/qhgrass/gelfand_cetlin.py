"""Gelfand-Cetlin eigenvalue map and the disk-potential critical-point solver.

A point of Gr(k, n) is presented by an orthonormal frame U (n x k); the
projection A = U U^dagger has eigenvalue-1 multiplicity k, and the sorted
spectra of its leading principal submatrices assemble into the
Gelfand-Cetlin map. The disk potential of the monotone torus fibre is a
Laurent polynomial in positive coordinates z_{i,j}; in logarithmic
coordinates it is a finite sum of exponentials of affine forms, hence
smooth and strictly convex on the relevant subspace, and Newton iteration
with backtracking finds its unique critical point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagram import GrContext

ORTHO_TOL = 1e-12
CONST_EIG_TOL = 1e-9


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


def _quaternion_block(n: int) -> np.ndarray:
    j = np.zeros((n, n))
    for t in range(n // 2):
        j[2 * t, 2 * t + 1] = -1.0
        j[2 * t + 1, 2 * t] = 1.0
    return j


def quaternionic_structure(v: np.ndarray) -> np.ndarray:
    """The antiunitary J: conjugate, then apply the block rotation matrix."""
    return _quaternion_block(v.shape[0]) @ v.conj()


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


def potential_eval(ctx: GrContext, point: GcPoint) -> float:
    """W(z): ratio grid down, ratio grid right, 1/z_{1,n-k}, and z_{k,1}."""
    z = point.z
    k, cols = ctx.k, ctx.cols
    total = 0.0
    for i in range(k - 1):
        total += float(np.sum(z[i, :] / z[i + 1, :]))
    for j in range(cols - 1):
        total += float(np.sum(z[:, j + 1] / z[:, j]))
    total += 1.0 / float(z[0, cols - 1])
    total += float(z[k - 1, 0])
    return total


def potential_grad(ctx: GrContext, point: GcPoint) -> np.ndarray:
    """Analytic gradient dW/dz as a k x (n-k) array."""
    z = point.z.reshape(-1)
    t = _terms(ctx)
    logs = t @ np.log(z)
    vals = np.exp(logs)
    grad = (t * vals[:, None]).sum(axis=0) / z
    return grad.reshape(point.z.shape)


def find_critical_point(
    ctx: GrContext, tol: float = 1e-8, max_iter: int = 200
) -> tuple[GcPoint, dict]:
    """Minimize the potential in logarithmic coordinates by damped Newton.

    In u = log z the potential is a sum of exponentials of affine forms, so
    it is smooth and convex and the Hessian stays positive definite along
    the iteration; the unique interior minimum is the critical point.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    t = _terms(ctx)
    dim = t.shape[1]
    u = np.zeros(dim)
    history = []

    def objective(vec):
        return float(np.sum(np.exp(t @ vec)))

    iters = 0
    for iters in range(1, max_iter + 1):
        vals = np.exp(t @ u)
        grad_u = t.T @ vals
        z = np.exp(u)
        grad_z = grad_u / z
        history.append({"W": float(vals.sum()), "gradInf": float(np.max(np.abs(grad_z)))})
        if np.max(np.abs(grad_z)) < tol and np.max(np.abs(grad_u)) < tol:
            break
        hess = t.T @ (t * vals[:, None])
        np.linalg.cholesky(hess)  # convexity certificate: must be positive definite
        step = np.linalg.solve(hess, -grad_u)
        base = float(vals.sum())
        slope = float(grad_u @ step)
        scale = 1.0
        while objective(u + scale * step) > base + 0.25 * scale * slope and scale > 1e-12:
            scale *= 0.5
        u = u + scale * step
    else:
        raise ConvergenceError(f"no convergence after {max_iter} Newton steps")

    z = np.exp(u).reshape(ctx.k, ctx.cols)
    point = GcPoint(ctx, z)
    grad = potential_grad(ctx, point)
    report = {
        "z": {f"{i + 1},{j + 1}": float(z[i, j]) for i in range(ctx.k) for j in range(ctx.cols)},
        "W": potential_eval(ctx, point),
        "gradInf": float(np.max(np.abs(grad))),
        "iters": iters,
        "history": history,
    }
    return point, report


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

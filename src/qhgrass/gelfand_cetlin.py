"""Gelfand-Cetlin eigenvalue map and the disk potential's critical point.

A point of Gr(k, n) is presented by an orthonormal frame U (n x k); the
projection A = U U^dagger has eigenvalue-1 multiplicity k, and the sorted
spectra of its leading principal submatrices assemble into the
Gelfand-Cetlin map. The disk potential W of the monotone torus fibre is a
Laurent polynomial in positive coordinates z_{i,j}, with one monomial per
pair of _terms. critical_point gives its critical point in closed form, a
ratio of sines, and checks it exactly in a cyclotomic field: every
logarithmic derivative of W vanishes there, and W = n sin(k pi/n) / sin(pi/n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagram import GrContext
from .exactfield import cyclotomic_field

ORTHO_TOL = 1e-12
CONST_EIG_TOL = 1e-9


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


def _terms(ctx: GrContext) -> list[tuple[int, int]]:
    """The potential's Laurent monomials z_a / z_b as (a, b) pairs of flat cell
    indices (i-1)(n-k) + (j-1), where -1 stands for the factor 1. They are
    the ratios down and right in the grid, 1/z_{1,n-k} and z_{k,1}."""
    k, cols = ctx.k, ctx.cols

    def cell(i, j):
        return (i - 1) * cols + (j - 1)

    terms = [(cell(i, j), cell(i + 1, j)) for i in range(1, k) for j in range(1, cols + 1)]
    terms += [(cell(i, j + 1), cell(i, j)) for i in range(1, k + 1) for j in range(1, cols)]
    return terms + [(-1, cell(1, cols)), (cell(k, 1), -1)]


def _brackets(ctx: GrContext) -> list[tuple[list[int], list[int]]]:
    """Per cell, in _terms' order: the arguments m of the brackets [m] above
    and below the fraction bar of z_{i,j}."""
    k = ctx.k
    return [
        (
            [j + k - a for a in range(1, i)] + [a - i for a in range(i + 1, k + 1)],
            [i - a for a in range(1, i)] + [j + k - a for a in range(i + 1, k + 1)],
        )
        for i in range(1, k + 1)
        for j in range(1, ctx.cols + 1)
    ]


def critical_point(ctx: GrContext) -> tuple[dict, dict]:
    """The positive critical point of the disk potential W, in closed form.

    With [m] = sin(m pi/n) and a over 1..k,

        z_{i,j} = prod_{a<i} [j+k-a]/[i-a] * prod_{a>i} [a-i]/[j+k-a].

    The formula is a fit, and an exact check certifies each point: in
    cyclotomic_field(2n), with [m] mapped to zeta^m - zeta^-m (each z has as
    many brackets above as below, so the factor 1/2i cancels), every
    dW/du_{i,j} must be 0 and W [1] must be n [k], that is
    W = n sin(k pi/n) / sin(pi/n) (Rietsch, 2008). A failed check raises
    RuntimeError.

    Returns the exact z_{i,j}, keyed by 1-based (i, j), and the report
    {"z", "W", "exactCheck"}, whose floats come from the same brackets
    through math.sin, with [m] taken as [min(m, n-m)]; cells with equal exact
    values print the float of the first of them.
    """
    n, k = ctx.n, ctx.k
    if ctx.cols == 0:
        raise ValueError(f"{ctx} is a point: the disk potential has no variables")
    F = cyclotomic_field(2 * n)
    zeta = F.gen()
    bracket = [F.sub(F.pow(zeta, m), F.pow(zeta, 2 * n - m)) for m in range(n)]
    inverse = [None] + [F.inv(b) for b in bracket[1:]]
    cells = _brackets(ctx)

    def product(above, below):
        value = F.one()
        for m in above:
            value = F.mul(value, bracket[m])
        for m in below:
            value = F.mul(value, inverse[m])
        return value

    # a last entry 1 in z, 1/z and grad serves the index -1 of _terms
    z = [product(up, down) for up, down in cells] + [F.one()]
    z_inv = [product(down, up) for up, down in cells] + [F.one()]
    grad = [F.zero()] * len(z)
    total = F.zero()
    for a, b in _terms(ctx):
        monomial = F.mul(z[a], z_inv[b])
        total = F.add(total, monomial)
        grad[a] = F.add(grad[a], monomial)
        grad[b] = F.sub(grad[b], monomial)
    if not all(F.is_zero(g) for g in grad[:-1]):
        raise RuntimeError(f"the closed-form point of {ctx} is not critical")
    if F.mul(total, bracket[1]) != F.mul(F.from_int(n), bracket[k]):
        raise RuntimeError(f"W at the closed-form point of {ctx} is not n [k]/[1]")

    def sine(m):
        return math.sin(min(m, n - m) * math.pi / n)

    keys = [(i, j) for i in range(1, k + 1) for j in range(1, ctx.cols + 1)]
    floats = {}  # exact value -> its float, so that equal values print equal
    report = {
        "z": {
            f"{i},{j}": floats.setdefault(value, math.prod(map(sine, up)) / math.prod(map(sine, down)))
            for (i, j), value, (up, down) in zip(keys, z, cells)
        },
        "W": n * sine(k) / sine(1),
        "exactCheck": True,
    }
    return dict(zip(keys, z)), report


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

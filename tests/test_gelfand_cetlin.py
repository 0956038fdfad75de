import math

import numpy as np
import pytest

import qhgrass
import qhgrass.gelfand_cetlin as gelfand_cetlin
from qhgrass.diagram import GrContext
from qhgrass.gelfand_cetlin import (
    ConvergenceError,
    Frame,
    GcPoint,
    find_critical_point,
    gc_csv_rows,
    gc_map,
    potential_eval,
    potential_grad,
    quaternionic_frame,
    quaternionic_structure,
    random_frame,
)


def coordinate_frame(ctx, columns):
    u = np.zeros((ctx.n, ctx.k), dtype=complex)
    for c, row in enumerate(columns):
        u[row, c] = 1.0
    return Frame(ctx, u)


def test_frame_validation():
    ctx = GrContext(2, 4)
    with pytest.raises(ValueError):
        Frame(ctx, np.ones((4, 2), dtype=complex))
    with pytest.raises(ValueError):
        Frame(ctx, np.zeros((3, 2), dtype=complex))


def test_gc_map_vertex_frames():
    ctx = GrContext(2, 5)
    top = gc_map(coordinate_frame(ctx, [0, 1]))
    assert np.allclose(top.grid, 1.0)
    bottom = gc_map(coordinate_frame(ctx, [3, 4]))
    assert np.allclose(bottom.grid, 0.0)


def test_projection_identity():
    for seed in range(20):
        frame = random_frame(GrContext(3, 6), seed)
        a = frame.projection()
        assert np.max(np.abs(a @ a - a)) < 1e-10
        assert np.max(np.abs(a.conj().T - a)) < 1e-10


@pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (3, 6)])
def test_minmax_interlacing_all_levels(k, n):
    """lambda_i^(r+1) >= lambda_i^(r) >= lambda_(i+1)^(r+1) on 100 frames."""
    ctx = GrContext(k, n)
    for seed in range(100):
        a = random_frame(ctx, seed).projection()
        spectra = [np.sort(np.linalg.eigvalsh(a[:r, :r]))[::-1] for r in range(1, n + 1)]
        for r in range(1, n):
            upper = spectra[r]  # size r+1
            lower = spectra[r - 1]  # size r
            for i in range(r):
                assert upper[i] >= lower[i] - 1e-9
                assert lower[i] >= upper[i + 1] - 1e-9


@pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (3, 6)])
def test_gc_grid_interlacing(k, n):
    ctx = GrContext(k, n)
    for seed in range(100):
        values = gc_map(random_frame(ctx, seed))
        assert values.interlacing_violation() < 1e-9
        assert np.all(values.grid > -1e-9) and np.all(values.grid < 1 + 1e-9)


def test_quaternionic_structure_is_antiunitary_square_minus_one():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    w = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    jv = quaternionic_structure(v)
    assert np.allclose(quaternionic_structure(jv), -v)
    assert np.isclose(np.vdot(jv, quaternionic_structure(w)), np.vdot(w, v))
    # pairs (a, b) -> (-conj b, conj a); an odd last coordinate maps to 0
    odd = quaternionic_structure(np.array([1 + 2j, 3j, 5.0]))
    assert np.array_equal(odd, np.array([3j, 1 - 2j, 0]))


def test_quaternionic_frame_shape_and_pairing():
    ctx = GrContext(2, 4)
    f0 = quaternionic_frame(ctx, 0)
    # columns come in (X, JX) pairs
    assert np.allclose(f0.u[:, 1], quaternionic_structure(f0.u[:, 0]))
    a2 = f0.projection()[:2, :2]
    assert np.allclose(a2, a2[0, 0].real * np.eye(2), atol=1e-12)
    f1 = quaternionic_frame(ctx, 1)
    assert not np.allclose(f0.u, f1.u)
    with pytest.raises(ValueError):
        quaternionic_frame(GrContext(2, 5), 0)


@pytest.mark.parametrize("k,n", [(2, 4), (4, 8), (4, 10), (6, 12)])
def test_quaternionic_locus_equality(k, n):
    """On the J-locus every even leading block has its eigenvalues in Kramers
    pairs: z_{i,j} = z_{i+1,j-1} for odd i and even j (the first is
    z_{1,2} = z_{2,1})."""
    ctx = GrContext(k, n)
    pairs = [(i, j) for i in range(1, k, 2) for j in range(2, ctx.cols + 1, 2)]
    for seed in range(100):
        values = gc_map(quaternionic_frame(ctx, seed))
        for i, j in pairs:
            assert abs(values.value(i, j) - values.value(i + 1, j - 1)) < 1e-12, (seed, i, j)


def test_generic_frames_separate_from_the_locus():
    ctx = GrContext(2, 4)
    violations = 0
    for seed in range(100):
        values = gc_map(random_frame(ctx, seed))
        if abs(values.value(1, 2) - values.value(2, 1)) > 1e-3:
            violations += 1
    assert violations >= 95


def test_potential_examples():
    g12 = GrContext(1, 2)
    assert potential_eval(g12, GcPoint(g12, np.array([[1.0]]))) == 2.0
    assert potential_eval(g12, GcPoint(g12, np.array([[2.0]]))) == 2.5
    g24 = GrContext(2, 4)
    assert potential_eval(g24, GcPoint(g24, np.ones((2, 2)))) == 6.0
    with pytest.raises(ValueError):
        GcPoint(g12, np.array([[0.0]]))


def test_potential_gradient_examples_and_fd():
    g12 = GrContext(1, 2)
    assert potential_grad(g12, GcPoint(g12, np.array([[1.0]])))[0, 0] == pytest.approx(0.0)
    assert potential_grad(g12, GcPoint(g12, np.array([[2.0]])))[0, 0] == pytest.approx(0.75)
    for ctx in (GrContext(2, 4), GrContext(2, 5), GrContext(3, 6)):
        rng = np.random.default_rng(ctx.n)
        z = np.exp(0.4 * rng.standard_normal((ctx.k, ctx.cols)))
        grad = potential_grad(ctx, GcPoint(ctx, z))
        h = 1e-6
        for i in range(ctx.k):
            for j in range(ctx.cols):
                zp, zm = z.copy(), z.copy()
                zp[i, j] += h
                zm[i, j] -= h
                fd = (
                    potential_eval(ctx, GcPoint(ctx, zp))
                    - potential_eval(ctx, GcPoint(ctx, zm))
                ) / (2 * h)
                assert abs(fd - grad[i, j]) <= 1e-6 * max(1.0, abs(grad[i, j]))


def test_critical_point_gr12_exact():
    point, report = find_critical_point(GrContext(1, 2), tol=1e-10)
    assert abs(point.value(1, 1) - 1.0) < 1e-12
    assert abs(report["W"] - 2.0) < 1e-12


@pytest.mark.parametrize("k,n", [(k, n) for n in range(2, 13) for k in range(1, n)])
def test_critical_point_converges(k, n):
    """W at the critical point is n sin(k pi/n) / sin(pi/n) (Rietsch, Adv.
    Math. 2008), to 1e-12 relative."""
    ctx = GrContext(k, n)
    point, report = find_critical_point(ctx, tol=1e-8)
    assert report["gradInf"] < 1e-8
    want = n * math.sin(k * math.pi / n) / math.sin(math.pi / n)
    assert abs(report["W"] - want) <= 1e-12 * want
    # logarithmic-derivative criterion z * dW/dz = 0 within tolerance
    grad = potential_grad(ctx, point)
    assert np.max(np.abs(point.z * grad)) < 1e-8
    assert report["iters"] <= 50
    assert len(report["history"]) == report["iters"]


def test_critical_point_validation():
    with pytest.raises(ValueError):
        find_critical_point(GrContext(2, 4), tol=0.0)
    with pytest.raises(ConvergenceError):
        find_critical_point(GrContext(2, 5), tol=1e-300)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf")])
def test_critical_point_rejects_a_non_finite_tol(tol):
    """nan compares false with everything, so it used to pass the sign check
    and run every Newton step before reporting no convergence."""
    with pytest.raises(ValueError, match="finite"):
        find_critical_point(GrContext(2, 5), tol=tol)


def test_gr_n_n_has_no_values_and_no_potential():
    ctx = GrContext(2, 2)
    assert gc_map(random_frame(ctx, 0)).interlacing_violation() == 0.0
    with pytest.raises(ValueError):
        find_critical_point(ctx)


def test_csv_rows():
    ctx = GrContext(2, 4)
    rows = gc_csv_rows(ctx, [0, 1])
    assert rows[0] == "seed,z1_1,z1_2,z2_1,z2_2"
    assert len(rows) == 3
    assert rows[1].startswith("0,")


@pytest.mark.parametrize(
    "name",
    [
        "Frame",
        "GcPoint",
        "GcValues",
        "find_critical_point",
        "gc_map",
        "potential_eval",
        "potential_grad",
        "quaternionic_frame",
        "random_frame",
    ],
)
def test_package_reexports_the_gelfand_cetlin_names(name):
    assert getattr(qhgrass, name) is getattr(gelfand_cetlin, name)


def test_package_has_no_other_lazy_names():
    with pytest.raises(AttributeError, match="no_such_name"):
        qhgrass.no_such_name
    with pytest.raises(AttributeError):
        qhgrass.gc_csv_rows

import math

import numpy as np
import pytest

import qhgrass
import qhgrass.gelfand_cetlin as gelfand_cetlin
from oracles import gc_potential, newton_critical_point
from qhgrass.diagram import GrContext
from qhgrass.exactfield import cyclotomic_field
from qhgrass.gelfand_cetlin import (
    Frame,
    critical_point,
    gc_csv_rows,
    gc_map,
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


@pytest.mark.parametrize("k,n", [(2, 4), (2, 6), (4, 8), (4, 10), (6, 12)])
def test_quaternionic_locus_equality(k, n):
    """On the J-locus every even leading block has its eigenvalues in Kramers
    pairs, z_{i,j} = z_{i+1,j-1} for odd i and even j (the first is
    z_{1,2} = z_{2,1}), and interlacing then pins the whole 2x2 block
    z_{i..i+1,j-1..j} to that value. So the block is checked whole, and the
    neighbours across a block boundary and the Kramers pairs of a random
    frame, which a check of the wrong cells would also call equal, must
    differ."""
    ctx = GrContext(k, n)
    blocks = [(i, j) for i in range(1, k, 2) for j in range(2, ctx.cols + 1, 2)]
    for seed in range(100):
        z = gc_map(quaternionic_frame(ctx, seed)).value
        generic = gc_map(random_frame(ctx, seed)).value
        for i, j in blocks:
            block = [z(i, j - 1), z(i, j), z(i + 1, j - 1), z(i + 1, j)]
            assert max(block) - min(block) < 1e-12, (seed, i, j)
            assert abs(generic(i, j) - generic(i + 1, j - 1)) > 1e-6, (seed, i, j)
        for i in range(1, k + 1):
            for j in range(2, ctx.cols, 2):
                assert abs(z(i, j) - z(i, j + 1)) > 1e-6, (seed, i, j)


def test_generic_frames_separate_from_the_locus():
    ctx = GrContext(2, 4)
    violations = 0
    for seed in range(100):
        values = gc_map(random_frame(ctx, seed))
        if abs(values.value(1, 2) - values.value(2, 1)) > 1e-3:
            violations += 1
    assert violations >= 95


def test_potential_examples():
    """The oracle's W, whose monomials the tests build from the interlacing
    inequalities, not from the module's _terms."""
    assert gc_potential(1, 2, np.array([[1.0]]))[0] == 2.0
    assert gc_potential(1, 2, np.array([[2.0]]))[0] == 2.5
    assert gc_potential(2, 4, np.ones((2, 2)))[0] == 6.0


def test_potential_gradient_examples_and_fd():
    assert gc_potential(1, 2, np.array([[1.0]]))[1][0, 0] == pytest.approx(0.0)
    assert gc_potential(1, 2, np.array([[2.0]]))[1][0, 0] == pytest.approx(0.75)
    for k, n in ((2, 4), (2, 5), (3, 6)):
        rng = np.random.default_rng(n)
        z = np.exp(0.4 * rng.standard_normal((k, n - k)))
        grad = gc_potential(k, n, z)[1]
        h = 1e-6
        for i in range(k):
            for j in range(n - k):
                zp, zm = z.copy(), z.copy()
                zp[i, j] += h
                zm[i, j] -= h
                fd = (gc_potential(k, n, zp)[0] - gc_potential(k, n, zm)[0]) / (2 * h)
                assert abs(fd - grad[i, j]) <= 1e-6 * max(1.0, abs(grad[i, j]))


def test_critical_point_gr12_exact():
    z, report = critical_point(GrContext(1, 2))
    assert z == {(1, 1): cyclotomic_field(4).one()}
    assert report == {"z": {"1,1": 1.0}, "W": 2.0, "exactCheck": True}


@pytest.mark.parametrize("k,n", [(k, n) for n in range(2, 17) for k in range(1, n)])
def test_critical_point_exact_check(k, n):
    """critical_point raises unless grad W = 0 and W [1] = n [k] hold exactly.
    The printed W is n sin(k pi/n) / sin(pi/n) (Rietsch, Adv. Math. 2008) to
    1e-12 relative, and cells with equal exact values print equal floats."""
    z, report = critical_point(GrContext(k, n))
    assert report["exactCheck"] is True
    want = n * math.sin(k * math.pi / n) / math.sin(math.pi / n)
    assert abs(report["W"] - want) <= 1e-12 * want
    assert list(z) == [(i, j) for i in range(1, k + 1) for j in range(1, n - k + 1)]
    first = {}  # exact value -> the float printed for its first cell
    for (i, j), value in z.items():
        printed = report["z"][f"{i},{j}"]
        assert first.setdefault(value, printed) == printed


@pytest.mark.parametrize("k,n", [(k, n) for n in range(2, 14) for k in range(1, n)])
def test_critical_point_converges(k, n):
    """The Newton oracle at tol 1e-10 converges to the closed form's W and
    lands on the printed z to 1e-9 relative."""
    z, w, grad_inf, steps = newton_critical_point(k, n, tol=1e-10)
    assert grad_inf < 1e-10 and steps <= 50
    want = n * math.sin(k * math.pi / n) / math.sin(math.pi / n)
    assert abs(w - want) <= 1e-12 * want
    report = critical_point(GrContext(k, n))[1]
    printed = np.array(list(report["z"].values())).reshape(k, n - k)
    assert np.max(np.abs(z - printed) / printed) < 1e-9


def test_critical_point_validation(monkeypatch):
    """One bracket off by one in one cell fails the exact check."""
    right = gelfand_cetlin._brackets
    for k, n, cell in ((2, 5, 1), (3, 7, 5), (4, 8, 0)):

        def wrong(ctx, cell=cell):
            cells = right(ctx)
            up, down = cells[cell]
            cells[cell] = ([up[0] + 1] + up[1:], down)
            return cells

        monkeypatch.setattr(gelfand_cetlin, "_brackets", wrong)
        with pytest.raises(RuntimeError, match="not critical"):
            critical_point(GrContext(k, n))


def test_gr_n_n_has_no_values_and_no_potential():
    ctx = GrContext(2, 2)
    assert gc_map(random_frame(ctx, 0)).interlacing_violation() == 0.0
    with pytest.raises(ValueError, match="no variables"):
        critical_point(ctx)


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
        "GcValues",
        "critical_point",
        "gc_map",
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

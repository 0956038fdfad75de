from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhgrass.diagram import (
    EMPTY,
    GradedBasisElement,
    GrContext,
    YoungDiagram,
    column_diagram,
    enumerate_diagrams,
    graded_basis,
)

from oracles import box_partitions, transpose_rows


def test_context_validation():
    with pytest.raises(ValueError):
        GrContext(0, 3)
    with pytest.raises(ValueError):
        GrContext(4, 3)
    assert GrContext(2, 5).cols == 3


def test_diagram_normalization_and_validation():
    assert tuple(YoungDiagram((3, 1, 0, 0))) == (3, 1)
    assert YoungDiagram(()) == EMPTY
    with pytest.raises(ValueError):
        YoungDiagram((1, 2))
    with pytest.raises(ValueError):
        YoungDiagram((2, -1))


def test_diagram_rejects_non_integral_rows():
    for rows in ([1.5, 0.9], [2.0], "21"):
        with pytest.raises(TypeError):
            YoungDiagram(rows)


def test_enumerate_counts():
    assert len(enumerate_diagrams(GrContext(2, 5))) == 10  # C(5,2)
    assert len(enumerate_diagrams(GrContext(1, 2))) == 2
    # brute-force oracle for the 3x3 box
    assert len(enumerate_diagrams(GrContext(3, 6))) == len(box_partitions(3, 3)) == 20


@pytest.mark.parametrize("k,n", [(k, n) for n in range(1, 11) for k in range(1, n + 1)])
def test_enumerate_matches_binomial_and_oracle(k, n):
    diagrams = enumerate_diagrams(GrContext(k, n))
    assert len(diagrams) == comb(n, k)
    assert {tuple(d) for d in diagrams} == box_partitions(k, n - k)
    # canonical order: by size, then descending-lexicographic rows
    keys = [d.sort_key() for d in diagrams]
    assert keys == sorted(keys)


def test_conjugate_examples():
    assert tuple(YoungDiagram((3, 1)).conjugate()) == (2, 1, 1)
    assert EMPTY.conjugate() == EMPTY
    assert tuple(YoungDiagram((3, 2)).conjugate()) == (2, 2, 1)


@pytest.mark.parametrize("k,n", [(k, n) for n in range(1, 11) for k in range(1, n + 1)])
def test_conjugate_involutive(k, n):
    ctx = GrContext(k, n)
    diagrams = enumerate_diagrams(ctx)
    for diagram in diagrams:
        flipped = diagram.conjugate()
        assert tuple(flipped) == transpose_rows(tuple(diagram))
        assert flipped.fits(ctx.cols, ctx.k)
        assert flipped.conjugate() == diagram
    if k < n:  # the dual context Gr(n-k, n) exists and holds exactly the conjugates
        assert {d.conjugate() for d in diagrams} == set(enumerate_diagrams(GrContext(n - k, n)))


def test_graded_basis_paper_cases():
    got = graded_basis(GrContext(2, 13), 11)
    assert [(tuple(d), m) for d, m in got] == [
        ((11,), 0),
        ((10, 1), 0),
        ((9, 2), 0),
        ((8, 3), 0),
        ((7, 4), 0),
        ((6, 5), 0),
    ]
    got = graded_basis(GrContext(2, 12), 10)
    assert [(tuple(d), m) for d, m in got] == [
        ((10,), 0),
        ((9, 1), 0),
        ((8, 2), 0),
        ((7, 3), 0),
        ((6, 4), 0),
        ((5, 5), 0),
    ]


def test_graded_basis_unit_and_shift():
    for ctx in (GrContext(1, 4), GrContext(2, 6), GrContext(3, 7)):
        assert (EMPTY, 0) in [tuple(e) for e in graded_basis(ctx, 0)]
        for d in range(0, ctx.n):
            base = graded_basis(ctx, d)
            shifted = graded_basis(ctx, d + ctx.n)
            assert [(dd, m + 1) for dd, m in base] == [tuple(e) for e in shifted]


@pytest.mark.parametrize("k,n", [(1, 5), (2, 5), (2, 8), (3, 7), (4, 9)])
def test_graded_dimensions_sum_to_binomial(k, n):
    ctx = GrContext(k, n)
    assert sum(len(graded_basis(ctx, d)) for d in range(n)) == comb(n, k)


@pytest.mark.parametrize(
    "k,n",
    [(1, 1), (1, 5), (2, 2), (2, 10), (3, 7), (3, 9), (4, 4), (4, 10), (5, 12), (2, 101), (3, 20)],
)
def test_graded_basis_is_the_filtered_box(k, n):
    """graded_basis lists one degree directly; the brute-force box, sorted
    canonically (size, then descending-lexicographic rows) and filtered by
    degree, is the oracle on every degree -n..2n."""
    ctx = GrContext(k, n)
    box = sorted(box_partitions(k, n - k), key=lambda rows: (sum(rows), [-r for r in rows]))
    for degree in range(-n, 2 * n + 1):
        want = tuple(
            GradedBasisElement(d, (degree - sum(d)) // n) for d in box if (degree - sum(d)) % n == 0
        )
        got = graded_basis(ctx, degree)
        assert got == want, degree
        assert all(type(e.diagram) is YoungDiagram for e in got)


def test_column_diagram_and_text():
    assert tuple(column_diagram(3)) == (1, 1, 1)
    assert YoungDiagram((3, 1)).to_text() == "3,1"
    assert EMPTY.to_text() == "-"
    assert YoungDiagram.from_text("3,1") == YoungDiagram((3, 1))
    assert YoungDiagram.from_text("-") == EMPTY


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=9), min_size=0, max_size=6))
def test_diagram_text_roundtrip(raw):
    rows = tuple(sorted((r for r in raw if r), reverse=True))
    diagram = YoungDiagram(rows)
    assert YoungDiagram.from_text(diagram.to_text()) == diagram
    assert diagram.conjugate().conjugate() == diagram
    assert diagram.conjugate().size == diagram.size

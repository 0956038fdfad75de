import copy
import pickle
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

from qhgrass import diagram as diagram_module
from qhgrass import qh_core
from qhgrass.exactfield import QQ
from qhgrass.qh_core import QhElement, schubert_product

from oracles import box_partitions, transpose_rows


def test_context_validation():
    with pytest.raises(ValueError):
        GrContext(0, 3)
    with pytest.raises(ValueError):
        GrContext(4, 3)
    assert GrContext(2, 5).cols == 3


def test_context_fields_are_exact_ints(monkeypatch):
    """A float or str k or n is refused, as a float diagram row is: GrContext(2.0,
    5) equals GrContext(2, 5), so its first product would build the engine of
    (2, 5) with a float k and break every later product on Gr(2, 5)."""
    monkeypatch.setattr(qh_core, "_ENGINES", qh_core._Memo(lambda key: qh_core._ProductEngine(*key)))
    for k, n in ((2.0, 5), (2, 5.0), ("2", 5), (2, "5")):
        with pytest.raises(TypeError):
            schubert_product(GrContext(k, n), YoungDiagram((1,)), YoungDiagram((1,)))
    assert schubert_product(GrContext(2, 5), YoungDiagram((1,)), YoungDiagram((1,))) == {
        (YoungDiagram((2,)), 0): 1,
        (YoungDiagram((1, 1)), 0): 1,
    }

    class Two:
        def __index__(self):
            return 2

    ctx = GrContext(Two(), 5)
    assert type(ctx.k) is int and ctx == GrContext(2, 5) and hash(ctx) == hash(GrContext(2, 5))


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


def test_diagrams_are_interned_by_their_int_rows():
    d = YoungDiagram([2, 1])
    assert YoungDiagram([2, 1, 0]) is d and YoungDiagram((2, 1, 0, 0)) is d and YoungDiagram(d) is d
    # the key is built by operator.index, so an interned diagram does not
    # answer rows that only compare equal to its own
    for rows in ([2.0, 1.0], "21", [2, 1.0], (2.0, 1, 0)):
        with pytest.raises(TypeError):
            YoungDiagram(rows)
    assert YoungDiagram((3, 1)) is not YoungDiagram((3,))


def test_rejected_rows_raise_every_time_and_never_enter_the_table():
    for bad in ((1, 2), [2, -1], (0, 1), (3, 1, 2, 0)):
        for _ in range(3):
            with pytest.raises(ValueError):
                YoungDiagram(bad)
        assert tuple(bad) not in diagram_module._INTERNED
    assert all(list(d) == sorted(d, reverse=True) and (not d or d[-1] > 0) for d in diagram_module._INTERNED.values())


def test_intern_table_stays_within_its_cap(monkeypatch):
    cap = 12
    monkeypatch.setattr(diagram_module, "INTERN_CAP", cap)
    monkeypatch.setattr(diagram_module, "_INTERNED", {})
    monkeypatch.setattr(diagram_module, "_interned_rows", 0)
    table_rows = []
    for rows in sorted(box_partitions(3, 3)) * 2 + [(1, 0, 0, 0), (2, 2, 0, 0, 0, 0)]:
        assert YoungDiagram(rows) == tuple(r for r in rows if r)
        keys = diagram_module._INTERNED
        table_rows.append(sum(len(key) + 1 for key in keys))
        assert table_rows[-1] == diagram_module._interned_rows <= cap
    assert max(table_rows) > cap // 2  # the table did fill, and was cleared
    two_one = YoungDiagram((2, 1))
    before = dict(diagram_module._INTERNED)
    long_key = (2, 1) + (0,) * cap  # longer than the cap: answered, never entered, nothing cleared
    assert YoungDiagram(long_key) is two_one and long_key not in diagram_module._INTERNED
    assert before.items() <= diagram_module._INTERNED.items()


def test_an_interned_diagram_is_still_checked_against_the_box():
    """Interning checks the rows, not the box: sigma_(4) indexed on Gr(2, 7)
    is still refused on Gr(2, 5)."""
    four = YoungDiagram((4,))
    assert schubert_product(GrContext(2, 7), four, YoungDiagram((1,)))
    small = GrContext(2, 5)
    with pytest.raises(ValueError):
        schubert_product(small, four, YoungDiagram((1,)))
    with pytest.raises(ValueError):
        schubert_product(small, [4, 0], [1])
    with pytest.raises(ValueError):
        QhElement(small, QQ, {(four, 0): QQ.one()})
    with pytest.raises(ValueError):
        qh_core._engine(small).lookup(four)


def test_diagrams_have_no_dict_and_survive_pickle_and_copy():
    d = YoungDiagram((3, 1, 1))
    assert not hasattr(d, "__dict__")
    with pytest.raises(AttributeError):
        d.note = 1
    for twin in (pickle.loads(pickle.dumps(d)), copy.copy(d), copy.deepcopy(d)):
        assert twin == d and type(twin) is YoungDiagram and twin is d
    empty = pickle.loads(pickle.dumps(EMPTY))
    assert empty == EMPTY and type(empty) is YoungDiagram


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

"""Young-diagram combinatorics for the Schubert basis of Gr(k, n).

Diagrams are weakly decreasing row-length tuples fitting in the k x (n-k)
rectangle. The canonical ordering used everywhere downstream is (size,
descending-lexicographic rows), so that within each graded piece the
diagrams are listed by increasing second-row length; all matrices built on
these bases are reproducible bit for bit.

YoungDiagram interns its checked diagrams: the constructor turns its rows
into a key by operator.index (so a float or str row raises TypeError before
any lookup) and returns the diagram that key already names. Only a miss runs
the full check, _checked_rows, and only rows that pass it enter the table, so
[2, 1, 0] and [2, 1] give the one diagram (2, 1). Equal diagrams are then
mostly one object, and rows seen before, such as the Pieri targets of
qh_core._placed, cost one dict hit. The table is the module dict _INTERNED,
cleared whenever its keys would hold more than INTERN_CAP rows in all (a key
counts its length plus one), so a long row tuple cannot pin memory. A
diagram carries no __dict__ (__slots__ = ()), since an interned one is
shared by every caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index, lt
from typing import Iterator, NamedTuple


@dataclass(frozen=True)
class GrContext:
    """Ambient Grassmannian Gr(k, n) of complex k-planes in C^n."""

    k: int
    n: int

    def __post_init__(self):
        # operator.index, as for diagram rows: GrContext(2.0, 5) would equal
        # GrContext(2, 5) and share its product engine, so refuse it
        if type(self.k) is not int or type(self.n) is not int:
            object.__setattr__(self, "k", index(self.k))
            object.__setattr__(self, "n", index(self.n))
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")

    @property
    def cols(self) -> int:
        """Width n-k of the diagram rectangle."""
        return self.n - self.k


# the intern table of YoungDiagram: its keys hold at most this many rows in
# all, each key counted as its length plus one
INTERN_CAP = 1 << 16

_INTERNED: dict[tuple[int, ...], "YoungDiagram"] = {}
_interned_rows = 0  # the keys of _INTERNED counted as INTERN_CAP counts them


def _checked_rows(rows: tuple[int, ...]) -> tuple[int, ...]:
    """rows with trailing zeros stripped; ValueError unless they are
    nonnegative and weakly decreasing."""
    end = len(rows)
    while end and rows[end - 1] == 0:
        end -= 1
    rows = rows[:end]
    if rows and rows[-1] < 0:
        raise ValueError(f"negative row length in {rows}")
    if any(map(lt, rows, rows[1:])):
        raise ValueError(f"rows not weakly decreasing: {rows}")
    return rows


def _remember(key: tuple[int, ...], diagram: "YoungDiagram") -> None:
    """Enter key -> diagram in the intern table, cleared first if key would
    take it past INTERN_CAP; a key longer than the cap is not entered."""
    global _interned_rows
    cost = len(key) + 1
    if cost > INTERN_CAP:
        return
    if _interned_rows + cost > INTERN_CAP:
        _INTERNED.clear()
        _interned_rows = 0
    _INTERNED[key] = diagram
    _interned_rows += cost


def _intern(key: tuple[int, ...]) -> "YoungDiagram":
    """The diagram of an int row tuple the intern table misses: checked, and
    entered under its rows and under key."""
    rows = _checked_rows(key)
    diagram = _INTERNED.get(rows)
    if diagram is None:
        diagram = tuple.__new__(YoungDiagram, rows)
        _remember(diagram, diagram)
    if len(key) != len(rows):
        _remember(key, diagram)
    return diagram


class YoungDiagram(tuple):
    """Row lengths, weakly decreasing, trailing zeros stripped; interned (see
    the module docstring)."""

    __slots__ = ()

    def __new__(cls, rows=()):
        # operator.index, not int: a float or str row raises TypeError
        # instead of being truncated to another diagram
        key = tuple(map(index, rows))
        diagram = _INTERNED.get(key)
        return _intern(key) if diagram is None else diagram

    @property
    def size(self) -> int:
        return sum(self)

    @property
    def width(self) -> int:
        return self[0] if self else 0

    def fits(self, k: int, cols: int) -> bool:
        return len(self) <= k and self.width <= cols

    def conjugate(self) -> "YoungDiagram":
        return YoungDiagram(sum(1 for r in self if r > i) for i in range(self.width))

    def sort_key(self):
        return (self.size, tuple(-r for r in self))

    def to_text(self) -> str:
        return ",".join(map(str, self)) if self else "-"

    @classmethod
    def from_text(cls, text: str) -> "YoungDiagram":
        text = text.strip()
        if text in ("-", ""):
            return cls()
        return cls(int(part) for part in text.split(","))

    def __repr__(self):
        return f"YoungDiagram({self.to_text()})"


EMPTY = YoungDiagram()


def column_diagram(j: int) -> YoungDiagram:
    """The special class x_j: j boxes in the first column."""
    return YoungDiagram((1,) * j)


class GradedBasisElement(NamedTuple):
    """Basis symbol q^m * sigma_D; complex degree size(D) + n*m."""

    diagram: YoungDiagram
    q_power: int


def _partitions_of(size: int, rows: int, maximum: int) -> Iterator[tuple[int, ...]]:
    """Partitions of size <= rows * maximum into at most rows parts of at most
    maximum, descending-lexicographic; a first part >= size / rows always fits."""
    if size == 0:
        yield ()
        return
    for first in range(min(size, maximum), -(-size // rows) - 1, -1):
        for rest in _partitions_of(size - first, rows - 1, first):
            yield (first,) + rest


def enumerate_diagrams(ctx: GrContext) -> tuple[YoungDiagram, ...]:
    """All diagrams in the k x (n-k) rectangle in canonical order: sizes
    ascending, each listed in descending-lexicographic order."""
    return tuple(
        YoungDiagram(rows)
        for size in range(ctx.k * ctx.cols + 1)
        for rows in _partitions_of(size, ctx.k, ctx.cols)
    )


def graded_basis(ctx: GrContext, degree: int) -> tuple[GradedBasisElement, ...]:
    """Basis of the complex-degree-d graded piece: pairs (D, m), |D| + n*m = d,
    in canonical order: sizes |D| = d mod n ascending, each listed directly in
    descending-lexicographic order, so the cost follows the piece, not the box."""
    n = ctx.n
    return tuple(
        GradedBasisElement(YoungDiagram(rows), (degree - size) // n)
        for size in range(degree % n, ctx.k * ctx.cols + 1, n)
        for rows in _partitions_of(size, ctx.k, ctx.cols)
    )

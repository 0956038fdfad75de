"""Young-diagram combinatorics for the Schubert basis of Gr(k, n).

Diagrams are weakly decreasing row-length tuples fitting in the k x (n-k)
rectangle. The canonical ordering used everywhere downstream is (size,
descending-lexicographic rows), so that within each graded piece the
diagrams are listed by increasing second-row length; all matrices built on
these bases are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import index, lt
from typing import Iterator, NamedTuple


@dataclass(frozen=True)
class GrContext:
    """Ambient Grassmannian Gr(k, n) of complex k-planes in C^n."""

    k: int
    n: int

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")

    @property
    def cols(self) -> int:
        """Width n-k of the diagram rectangle."""
        return self.n - self.k


class YoungDiagram(tuple):
    """Row lengths, weakly decreasing, trailing zeros stripped."""

    def __new__(cls, rows=()):
        # operator.index, not int: a float or str row raises TypeError
        # instead of being truncated to another diagram
        rows = tuple(map(index, rows))
        end = len(rows)
        while end and rows[end - 1] == 0:
            end -= 1
        rows = rows[:end]
        if rows and rows[-1] < 0:
            raise ValueError(f"negative row length in {rows}")
        if any(map(lt, rows, rows[1:])):
            raise ValueError(f"rows not weakly decreasing: {rows}")
        return tuple.__new__(cls, rows)

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


def _partitions_in_box(rows: int, cols: int, maximum: int) -> Iterator[tuple[int, ...]]:
    if rows == 0:
        yield ()
        return
    for first in range(min(cols, maximum), -1, -1):
        if first == 0:
            yield ()
            continue
        for rest in _partitions_in_box(rows - 1, cols, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def enumerate_diagrams(ctx: GrContext) -> tuple[YoungDiagram, ...]:
    """All diagrams in the k x (n-k) rectangle in canonical order."""
    diagrams = [YoungDiagram(p) for p in _partitions_in_box(ctx.k, ctx.cols, ctx.cols)]
    diagrams.sort(key=YoungDiagram.sort_key)
    return tuple(diagrams)


def graded_basis(ctx: GrContext, degree: int) -> tuple[GradedBasisElement, ...]:
    """Basis of the complex-degree-d graded piece: pairs (D, m), |D| + n*m = d."""
    out = []
    for diagram in enumerate_diagrams(ctx):
        m, r = divmod(degree - diagram.size, ctx.n)
        if r == 0:
            out.append(GradedBasisElement(diagram, m))
    return tuple(out)

"""Max-plus vectors and matrices with exact rational entries.

A max-plus matrix ``M`` acts on a vector ``x`` by
``(M ⊗ x)[i] = max_j (M[i][j] + x[j])``.  One iteration of a consistent
timed SDF graph maps the production times of its initial tokens through
exactly such a matrix (Section 6 of the paper); the matrix is obtained by
the symbolic execution in :mod:`repro.core.symbolic`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from repro.maxplus.algebra import EPSILON, check_scalar, mp_max, mp_plus


class MaxPlusVector:
    """An immutable max-plus column vector with exact entries."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable):
        self._entries = tuple(check_scalar(x) for x in entries)

    @classmethod
    def _trusted(cls, entries: tuple) -> "MaxPlusVector":
        """Wrap an entry tuple derived from already-validated scalars
        (no per-entry check; the symbolic walk's hot path)."""
        vector = cls.__new__(cls)
        vector._entries = entries
        return vector

    @classmethod
    def unit(cls, size: int, index: int) -> "MaxPlusVector":
        """The ``index``-th max-plus unit vector: 0 at ``index``, ε elsewhere.

        These are the initial symbolic time stamps ī_k of Algorithm 1.
        """
        if not 0 <= index < size:
            raise IndexError(f"unit index {index} out of range for size {size}")
        return cls(0 if i == index else EPSILON for i in range(size))

    @classmethod
    def zeros(cls, size: int) -> "MaxPlusVector":
        """The all-0 vector (the max-plus 'ones' vector of timestamps)."""
        return cls(0 for _ in range(size))

    @classmethod
    def epsilons(cls, size: int) -> "MaxPlusVector":
        """The all-ε vector (the max-plus zero vector)."""
        return cls(EPSILON for _ in range(size))

    @property
    def entries(self) -> tuple:
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator:
        return iter(self._entries)

    def __getitem__(self, i: int):
        return self._entries[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MaxPlusVector):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def max_with(self, other: "MaxPlusVector") -> "MaxPlusVector":
        """Pointwise max-plus addition (⊕) of two vectors."""
        if len(other) != len(self):
            raise ValueError("vector size mismatch")
        return MaxPlusVector(mp_max(a, b) for a, b in zip(self, other))

    def add_scalar(self, c) -> "MaxPlusVector":
        """Max-plus scaling (⊗ by scalar ``c``): add ``c`` to every entry."""
        c = check_scalar(c)
        return MaxPlusVector(mp_plus(x, c) for x in self)

    def norm(self):
        """The max-plus norm: the largest entry (ε for the ε-vector)."""
        return mp_max(*self._entries)

    def normalised(self) -> "MaxPlusVector":
        """Subtract the norm from every finite entry; used for periodicity
        detection in the power iteration."""
        n = self.norm()
        if n == EPSILON:
            return self
        return self.add_scalar(-n)

    def inner(self, other: "MaxPlusVector"):
        """Max-plus inner product: max_i (self[i] + other[i])."""
        if len(other) != len(self):
            raise ValueError("vector size mismatch")
        return mp_max(*(mp_plus(a, b) for a, b in zip(self, other)))

    def __repr__(self) -> str:
        return f"MaxPlusVector({list(self._entries)!r})"


class MaxPlusMatrix:
    """An immutable square-or-rectangular max-plus matrix, row-major."""

    __slots__ = ("_rows", "_nrows", "_ncols")

    def __init__(self, rows: Sequence[Sequence]):
        self._rows = tuple(tuple(check_scalar(x) for x in row) for row in rows)
        self._nrows = len(self._rows)
        widths = {len(r) for r in self._rows}
        if len(widths) > 1:
            raise ValueError("ragged matrix rows")
        self._ncols = widths.pop() if widths else 0

    @classmethod
    def _trusted(cls, rows: Sequence[tuple], ncols: int) -> "MaxPlusMatrix":
        """Wrap ``ncols``-wide row tuples derived from already-validated
        scalars (no per-entry check)."""
        matrix = cls.__new__(cls)
        matrix._rows = tuple(rows)
        matrix._nrows = len(matrix._rows)
        matrix._ncols = ncols if matrix._nrows else 0
        return matrix

    @classmethod
    def identity(cls, size: int) -> "MaxPlusMatrix":
        """Max-plus identity: 0 on the diagonal, ε elsewhere."""
        return cls(
            [0 if i == j else EPSILON for j in range(size)] for i in range(size)
        )

    @classmethod
    def epsilons(cls, nrows: int, ncols: int) -> "MaxPlusMatrix":
        return cls([EPSILON] * ncols for _ in range(nrows))

    @classmethod
    def from_columns(cls, columns: Sequence[MaxPlusVector]) -> "MaxPlusMatrix":
        """Build a matrix whose ``k``-th column is ``columns[k]``.

        Algorithm 1 produces one symbolic time stamp *per initial token*;
        stacking them as columns yields the iteration matrix ``G`` with
        ``G[j][k] = g_{j,k}`` so that ``t'_k = max_j (t_j + G[j][k])``.
        Note: the paper indexes ``g_{j,k}`` by (source token j, produced
        token k); this constructor keeps that orientation, so apply the
        *transpose* to map old stamps to new stamps with ``M ⊗ x``.
        """
        if not columns:
            return cls([])
        size = len(columns[0])
        if any(len(c) != size for c in columns):
            raise ValueError("column size mismatch")
        return cls([c[j] for c in columns] for j in range(size))

    @property
    def nrows(self) -> int:
        return self._nrows

    @property
    def ncols(self) -> int:
        return self._ncols

    @property
    def rows(self) -> tuple:
        return self._rows

    def __getitem__(self, index):
        i, j = index
        return self._rows[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MaxPlusMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def transpose(self) -> "MaxPlusMatrix":
        return MaxPlusMatrix(
            (self._rows[i][j] for i in range(self._nrows))
            for j in range(self._ncols)
        )

    def apply(self, vector: MaxPlusVector) -> MaxPlusVector:
        """Matrix-vector product ``M ⊗ x``."""
        if len(vector) != self._ncols:
            raise ValueError(
                f"size mismatch: matrix has {self._ncols} columns, "
                f"vector has {len(vector)} entries"
            )
        return MaxPlusVector(
            mp_max(*(mp_plus(row[j], vector[j]) for j in range(self._ncols)))
            if self._ncols
            else EPSILON
            for row in self._rows
        )

    def multiply(self, other: "MaxPlusMatrix") -> "MaxPlusMatrix":
        """Matrix-matrix product ``self ⊗ other``."""
        if self._ncols != other._nrows:
            raise ValueError("matrix dimension mismatch")
        k_range = range(self._ncols)
        return MaxPlusMatrix(
            (
                mp_max(*(mp_plus(self._rows[i][k], other._rows[k][j]) for k in k_range))
                if self._ncols
                else EPSILON
                for j in range(other._ncols)
            )
            for i in range(self._nrows)
        )

    def max_with(self, other: "MaxPlusMatrix") -> "MaxPlusMatrix":
        """Pointwise max-plus addition (⊕) of two matrices."""
        if (self._nrows, self._ncols) != (other._nrows, other._ncols):
            raise ValueError("matrix dimension mismatch")
        return MaxPlusMatrix(
            (mp_max(a, b) for a, b in zip(r1, r2))
            for r1, r2 in zip(self._rows, other._rows)
        )

    def power(self, n: int) -> "MaxPlusMatrix":
        """Max-plus matrix power ``M^⊗n`` (n ≥ 0) by binary exponentiation."""
        if self._nrows != self._ncols:
            raise ValueError("power requires a square matrix")
        if n < 0:
            raise ValueError("negative max-plus matrix powers are undefined")
        result = MaxPlusMatrix.identity(self._nrows)
        base = self
        while n:
            if n & 1:
                result = result.multiply(base)
            base = base.multiply(base)
            n >>= 1
        return result

    def star(self, max_terms: int | None = None) -> "MaxPlusMatrix":
        """Kleene star ``M* = I ⊕ M ⊕ M² ⊕ …`` (longest-path closure).

        Converges iff no cycle of the precedence graph has positive
        weight; raises :class:`ValueError` otherwise.  Computed with a
        Floyd-Warshall sweep in O(n³).
        """
        if self._nrows != self._ncols:
            raise ValueError("star requires a square matrix")
        n = self._nrows
        dist = [list(row) for row in self._rows]
        for i in range(n):
            if dist[i][i] != EPSILON and dist[i][i] > 0:
                raise ValueError("positive self-loop: Kleene star diverges")
            dist[i][i] = mp_max(dist[i][i], 0)
        for k in range(n):
            row_k = dist[k]
            for i in range(n):
                d_ik = dist[i][k]
                if d_ik == EPSILON:
                    continue
                row_i = dist[i]
                for j in range(n):
                    via = mp_plus(d_ik, row_k[j])
                    if via > row_i[j]:
                        row_i[j] = via
        for i in range(n):
            if dist[i][i] > 0:
                raise ValueError("positive cycle: Kleene star diverges")
        return MaxPlusMatrix(dist)

    def finite_entry_count(self) -> int:
        """Number of non-ε entries (sparsity measure, see Figure 4)."""
        return sum(1 for row in self._rows for x in row if x != EPSILON)

    def column(self, j: int) -> MaxPlusVector:
        return MaxPlusVector(row[j] for row in self._rows)

    def row(self, i: int) -> MaxPlusVector:
        return MaxPlusVector(self._rows[i])

    def __repr__(self) -> str:
        body = ",\n ".join(repr(list(r)) for r in self._rows)
        return f"MaxPlusMatrix(\n [{body}])"

    def pretty(self) -> str:
        """Human-readable rendering with ε shown as '.'."""

        def fmt(x):
            if x == EPSILON:
                return "."
            if isinstance(x, Fraction) and x.denominator == 1:
                return str(x.numerator)
            return str(x)

        cells = [[fmt(x) for x in row] for row in self._rows]
        width = max((len(c) for row in cells for c in row), default=1)
        return "\n".join(" ".join(c.rjust(width) for c in row) for row in cells)

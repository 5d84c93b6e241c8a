"""Dense exact matrices over a scalar ring, with optional row/column labels.

Everything here is small and dense: the matrices that show up in practice are
fusion matrices and twist matrices on spaces of dimension at most a few dozen,
so Gauss-Jordan with exact division is entirely adequate.  Labels are carried
along so that entries can be addressed by coloring rather than by raw index.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .scalars import RingSpec, Scalar, scalar_from_json


class RingMatrix:
    """Immutable dense matrix with entries in a single RingSpec.

    Row and column labels are optional tuples of hashable values (typically
    ints or tuples of ints).  They are preserved by arithmetic where that
    makes sense: product takes row labels from the left factor and column
    labels from the right, inverse swaps the two.
    """

    __slots__ = ("ring", "rows", "row_labels", "col_labels")

    def __init__(
        self,
        ring: RingSpec,
        rows: Iterable[Iterable[Scalar]],
        row_labels: Sequence[object] | None = None,
        col_labels: Sequence[object] | None = None,
    ):
        rows = tuple(tuple(row) for row in rows)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged rows")
            for x in row:
                if not isinstance(x, Scalar) or x.ring != ring:
                    raise ValueError("entry not a scalar of the declared ring")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(
            self, "row_labels", None if row_labels is None else tuple(row_labels)
        )
        object.__setattr__(
            self, "col_labels", None if col_labels is None else tuple(col_labels)
        )
        if self.row_labels is not None and len(self.row_labels) != len(rows):
            raise ValueError("row label count does not match row count")
        if self.col_labels is not None and len(self.col_labels) != width:
            raise ValueError("column label count does not match column count")

    def __setattr__(self, name, value):
        raise AttributeError("RingMatrix is immutable")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def identity(cls, ring: RingSpec, n: int, labels: Sequence[object] | None = None) -> "RingMatrix":
        one = Scalar.one(ring)
        zero = Scalar.zero(ring)
        rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
        return cls(ring, rows, row_labels=labels, col_labels=labels)

    @classmethod
    def diagonal(
        cls,
        ring: RingSpec,
        entries: Sequence[Scalar],
        labels: Sequence[object] | None = None,
    ) -> "RingMatrix":
        zero = Scalar.zero(ring)
        n = len(entries)
        rows = [[entries[i] if i == j else zero for j in range(n)] for i in range(n)]
        return cls(ring, rows, row_labels=labels, col_labels=labels)

    # -- shape and access ------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0])

    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def entry(self, i: int, j: int) -> Scalar:
        return self.rows[i][j]

    def entry_by_label(self, row_label: object, col_label: object) -> Scalar:
        if self.row_labels is None or self.col_labels is None:
            raise ValueError("matrix has no labels")
        return self.rows[self.row_labels.index(row_label)][self.col_labels.index(col_label)]

    # -- arithmetic ------------------------------------------------------------

    def __mul__(self, other: "RingMatrix") -> "RingMatrix":
        if not isinstance(other, RingMatrix):
            return NotImplemented
        if self.ring != other.ring:
            raise ValueError("cannot multiply matrices over different rings")
        if self.n_cols != other.n_rows:
            raise ValueError("inner dimensions do not match")
        cols = [tuple(col) for col in zip(*other.rows)]
        rows = []
        for row in self.rows:
            out = []
            for col in cols:
                acc = Scalar.zero(self.ring)
                for a, b in zip(row, col):
                    acc = acc + a * b
                out.append(acc)
            rows.append(out)
        return RingMatrix(self.ring, rows, row_labels=self.row_labels, col_labels=other.col_labels)

    def __add__(self, other: "RingMatrix") -> "RingMatrix":
        if not isinstance(other, RingMatrix):
            return NotImplemented
        if self.ring != other.ring or self.n_rows != other.n_rows or self.n_cols != other.n_cols:
            raise ValueError("shape or ring mismatch")
        rows = [
            [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)
        ]
        return RingMatrix(self.ring, rows, row_labels=self.row_labels, col_labels=self.col_labels)

    def __sub__(self, other: "RingMatrix") -> "RingMatrix":
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return self + other.scale(Scalar.from_rational(self.ring, -1))

    def scale(self, c: Scalar | int) -> "RingMatrix":
        if isinstance(c, int):
            c = Scalar.from_rational(self.ring, c)
        rows = [[c * x for x in row] for row in self.rows]
        return RingMatrix(self.ring, rows, row_labels=self.row_labels, col_labels=self.col_labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.n_rows == other.n_rows
            and self.n_cols == other.n_cols
            and all(a == b for r1, r2 in zip(self.rows, other.rows) for a, b in zip(r1, r2))
        )

    def __hash__(self):
        return hash((self.ring, self.rows))

    def __repr__(self) -> str:
        body = "; ".join(", ".join(repr(x) for x in row) for row in self.rows)
        return f"RingMatrix({self.n_rows}x{self.n_cols}: {body})"

    # -- solved forms ----------------------------------------------------------

    def inverse(self) -> "RingMatrix":
        """Exact inverse by Gauss-Jordan elimination.

        Raises ValueError if the matrix is singular.  The inverse swaps the
        row and column labels, so label-addressed entries stay meaningful.
        """
        if not self.is_square():
            raise ValueError("inverse requires a square matrix")
        n = self.n_rows
        one = Scalar.one(self.ring)
        zero = Scalar.zero(self.ring)
        work = [list(row) for row in self.rows]
        aug = [[one if i == j else zero for j in range(n)] for i in range(n)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if not work[r][col].is_zero()), None)
            if pivot is None:
                raise ValueError("matrix is singular")
            if pivot != col:
                work[col], work[pivot] = work[pivot], work[col]
                aug[col], aug[pivot] = aug[pivot], aug[col]
            inv = work[col][col].invert()
            work[col] = [x * inv for x in work[col]]
            aug[col] = [x * inv for x in aug[col]]
            for r in range(n):
                if r == col or work[r][col].is_zero():
                    continue
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
        return RingMatrix(self.ring, aug, row_labels=self.col_labels, col_labels=self.row_labels)

    # -- predicates ------------------------------------------------------------

    def is_identity(self) -> bool:
        if not self.is_square():
            return False
        for i, row in enumerate(self.rows):
            for j, x in enumerate(row):
                if i == j:
                    if not x.is_one():
                        return False
                elif not x.is_zero():
                    return False
        return True

    def is_diagonal(self) -> bool:
        return all(
            x.is_zero() for i, row in enumerate(self.rows) for j, x in enumerate(row) if i != j
        )

    def is_scalar_multiple_of_identity(self) -> bool:
        if not self.is_square() or not self.is_diagonal():
            return False
        first = self.rows[0][0]
        return all(self.rows[i][i] == first for i in range(self.n_rows))

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        out = {
            "n_rows": self.n_rows,
            "n_cols": self.n_cols,
            "entries": [[x.to_json() for x in row] for row in self.rows],
        }
        if self.row_labels is not None:
            out["row_labels"] = [_label_json(x) for x in self.row_labels]
        if self.col_labels is not None:
            out["col_labels"] = [_label_json(x) for x in self.col_labels]
        return out


def _label_json(label: object):
    if isinstance(label, tuple):
        return list(label)
    return label


def _label_from_json(label: object):
    if isinstance(label, list):
        return tuple(label)
    return label


def matrix_from_json(ring: RingSpec, data: dict) -> RingMatrix:
    rows = [[scalar_from_json(x) for x in row] for row in data["entries"]]
    for row in rows:
        for x in row:
            if x.ring != ring:
                raise ValueError(f"entry ring {x.ring.describe()} != {ring.describe()}")
    row_labels = data.get("row_labels")
    col_labels = data.get("col_labels")
    return RingMatrix(
        ring,
        rows,
        row_labels=None if row_labels is None else [_label_from_json(x) for x in row_labels],
        col_labels=None if col_labels is None else [_label_from_json(x) for x in col_labels],
    )

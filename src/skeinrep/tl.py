"""Brute-force evaluator for closed Kauffman-bracket diagrams and colored
trivalent networks.

This module is the ground-truth oracle for the closed recoupling formulas.
Everything is expressed in a planar tangle term language: a diagram is a
sequence of rows (cups, caps, crossings, projector boxes) read bottom to top,
and evaluation composes the rows in the algebra of noncrossing matchings with
exact ring coefficients.  The state sum is exponential in the number of
crossings and projector strands, which is fine: the oracle exists to validate
formulas on small instances, never to compute at scale.

Conventions.  A resolved loop contributes delta = -A^2 - A^(-2).  A crossing
row ("cross", i, +1) means strand i passes over strand i+1, and resolves as
A * (identity smoothing) + A^(-1) * (cup-cap smoothing); sign -1 swaps the
weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .scalars import RingSpec, Scalar, a_power, quantum_integer

DEFAULT_STRAND_BOUND = 24


def loop_scalar(ring: RingSpec) -> Scalar:
    return -(a_power(ring, 2) + a_power(ring, -2))


# ---------------------------------------------------------------------------
# Matchings.  A matching on nb bottom + nt top points is a tuple m of length
# nb + nt with m[q] = partner of q.  Bottom points are 0..nb-1 left to right,
# top points nb..nb+nt-1 left to right.  Planarity is guaranteed because
# matchings are only ever built from planar atoms and compositions.
# ---------------------------------------------------------------------------


def _compose_matchings(m1: tuple, nb1: int, nt1: int, m2: tuple, nb2: int, nt2: int):
    """Glue the top of m1 to the bottom of m2. Returns (matching, loop_count)."""
    offset = nb1 + nt1
    partner = list(m1) + [q + offset for q in m2]

    def glue(q: int) -> int:
        # middle points only: top of diagram 1 <-> bottom of diagram 2
        if nb1 <= q < offset:
            return offset + (q - nb1)
        return nb1 + (q - offset)

    def final_index(q: int):
        if q < nb1:
            return q
        if q >= offset + nb2:
            return nb1 + (q - (offset + nb2))
        return None

    total = offset + nb2 + nt2
    visited = [False] * total
    result = [0] * (nb1 + nt2)
    boundary = list(range(nb1)) + list(range(offset + nb2, total))
    for start in boundary:
        if visited[start]:
            continue
        visited[start] = True
        q = partner[start]
        while final_index(q) is None:
            visited[q] = True
            q2 = glue(q)
            visited[q2] = True
            q = partner[q2]
        visited[q] = True
        a, b = final_index(start), final_index(q)
        result[a] = b
        result[b] = a
    loops = 0
    for q in range(nb1, offset + nb2):
        if visited[q]:
            continue
        loops += 1
        cur = q
        while not visited[cur]:
            visited[cur] = True
            nxt = partner[cur]
            visited[nxt] = True
            cur = glue(nxt)
    return tuple(result), loops


class TLElement:
    """Formal Scalar-linear combination of noncrossing matchings.

    terms maps matching tuples to nonzero coefficients; the zero element has
    an empty term dict.
    """

    __slots__ = ("ring", "n_bottom", "n_top", "terms")

    def __init__(self, ring: RingSpec, n_bottom: int, n_top: int, terms: dict):
        if (n_bottom + n_top) % 2 != 0:
            raise ValueError("odd total boundary point count")
        clean = {}
        for m, coeff in terms.items():
            if len(m) != n_bottom + n_top:
                raise ValueError("matching length does not fit boundary")
            if not coeff.is_zero():
                clean[m] = coeff
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "n_bottom", n_bottom)
        object.__setattr__(self, "n_top", n_top)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("TLElement is immutable")

    # -- atoms -----------------------------------------------------------------

    @classmethod
    def identity(cls, ring: RingSpec, n: int) -> "TLElement":
        m = tuple(list(range(n, 2 * n)) + list(range(n)))
        return cls(ring, n, n, {m: Scalar.one(ring)})

    @classmethod
    def hook(cls, ring: RingSpec, n: int, i: int) -> "TLElement":
        """The cup-cap generator e_i on n strands, 0 <= i <= n-2."""
        if not 0 <= i <= n - 2:
            raise ValueError(f"hook index {i} out of range for {n} strands")
        m = [0] * (2 * n)
        for jj in range(n):
            if jj in (i, i + 1):
                continue
            m[jj] = n + jj
            m[n + jj] = jj
        m[i], m[i + 1] = i + 1, i
        m[n + i], m[n + i + 1] = n + i + 1, n + i
        return cls(ring, n, n, {tuple(m): Scalar.one(ring)})

    @classmethod
    def cup(cls, ring: RingSpec, n: int, i: int) -> "TLElement":
        """Insert a new adjacent pair at top positions i, i+1 (n -> n+2)."""
        if not 0 <= i <= n:
            raise ValueError(f"cup position {i} out of range for {n} strands")
        m = [0] * (2 * n + 2)
        for jj in range(n):
            t = n + jj if jj < i else n + jj + 2
            m[jj] = t
            m[t] = jj
        m[n + i], m[n + i + 1] = n + i + 1, n + i
        return cls(ring, n, n + 2, {tuple(m): Scalar.one(ring)})

    @classmethod
    def cap(cls, ring: RingSpec, n: int, i: int) -> "TLElement":
        """Join bottom points i, i+1 (n -> n-2)."""
        if not 0 <= i <= n - 2:
            raise ValueError(f"cap position {i} out of range for {n} strands")
        m = [0] * (2 * n - 2)
        m[i], m[i + 1] = i + 1, i
        for jj in range(n):
            if jj in (i, i + 1):
                continue
            t = n + jj if jj < i else n + jj - 2
            m[jj] = t
            m[t] = jj
        return cls(ring, n, n - 2, {tuple(m): Scalar.one(ring)})

    @classmethod
    def crossing(cls, ring: RingSpec, n: int, i: int, sign: int) -> "TLElement":
        if sign not in (1, -1):
            raise ValueError("crossing sign must be +1 or -1")
        ident = cls.identity(ring, n).scale(a_power(ring, sign))
        smoothed = cls.hook(ring, n, i).scale(a_power(ring, -sign))
        return ident + smoothed

    @classmethod
    def zero(cls, ring: RingSpec, n_bottom: int, n_top: int) -> "TLElement":
        return cls(ring, n_bottom, n_top, {})

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other: "TLElement") -> "TLElement":
        if (
            self.ring != other.ring
            or self.n_bottom != other.n_bottom
            or self.n_top != other.n_top
        ):
            raise ValueError("shape or ring mismatch")
        terms = dict(self.terms)
        for m, coeff in other.terms.items():
            acc = terms.get(m)
            terms[m] = coeff if acc is None else acc + coeff
        return TLElement(self.ring, self.n_bottom, self.n_top, terms)

    def scale(self, coeff: Scalar) -> "TLElement":
        return TLElement(
            self.ring,
            self.n_bottom,
            self.n_top,
            {m: coeff * c for m, c in self.terms.items()},
        )

    def then(self, other: "TLElement") -> "TLElement":
        """Stack other on top of self (self first, bottom to top)."""
        if self.ring != other.ring:
            raise ValueError("ring mismatch")
        if self.n_top != other.n_bottom:
            raise ValueError(
                f"cannot stack: {self.n_top} output strands vs {other.n_bottom} inputs"
            )
        delta = loop_scalar(self.ring)
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m, loops = _compose_matchings(
                    m1, self.n_bottom, self.n_top, m2, other.n_bottom, other.n_top
                )
                coeff = c1 * c2
                for _ in range(loops):
                    coeff = coeff * delta
                acc = terms.get(m)
                terms[m] = coeff if acc is None else acc + coeff
        return TLElement(self.ring, self.n_bottom, other.n_top, terms)

    def tensor(self, other: "TLElement") -> "TLElement":
        """Place other to the right of self."""
        if self.ring != other.ring:
            raise ValueError("ring mismatch")
        nb1, nt1 = self.n_bottom, self.n_top
        nb2, nt2 = other.n_bottom, other.n_top

        def remap1(q: int) -> int:
            return q if q < nb1 else q + nb2

        def remap2(q: int) -> int:
            return nb1 + q if q < nb2 else nb1 + nt1 + q

        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = [0] * (nb1 + nb2 + nt1 + nt2)
                for q, p in enumerate(m1):
                    m[remap1(q)] = remap1(p)
                for q, p in enumerate(m2):
                    m[remap2(q)] = remap2(p)
                terms[tuple(m)] = c1 * c2
        return TLElement(self.ring, nb1 + nb2, nt1 + nt2, terms)

    def markov_closure(self) -> Scalar:
        """Close bottom point k to top point k for every k; returns the
        resulting scalar (a power of delta per closed loop, summed)."""
        if self.n_bottom != self.n_top:
            raise ValueError("closure requires equal bottom and top counts")
        n = self.n_bottom
        delta = loop_scalar(self.ring)
        total = Scalar.zero(self.ring)
        for m, coeff in self.terms.items():
            # every point has one matching edge and one closure edge
            # (bottom k to top k), so the union is a disjoint set of cycles
            seen = [False] * (2 * n)
            loops = 0
            for start in range(2 * n):
                if seen[start]:
                    continue
                loops += 1
                q = start
                while not seen[q]:
                    seen[q] = True
                    p = m[q]
                    seen[p] = True
                    q = p + n if p < n else p - n
            term = coeff
            for _ in range(loops):
                term = term * delta
            total = total + term
        return total

    def coefficient(self, matching: tuple) -> Scalar:
        return self.terms.get(matching, Scalar.zero(self.ring))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, TLElement):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.n_bottom == other.n_bottom
            and self.n_top == other.n_top
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(
            (self.ring, self.n_bottom, self.n_top, tuple(sorted(self.terms.items())))
        )

    def __repr__(self) -> str:
        return (
            f"TLElement({self.n_bottom}->{self.n_top}, {len(self.terms)} terms)"
        )

    def to_json(self) -> dict:
        return {
            "n_bottom": self.n_bottom,
            "n_top": self.n_top,
            "terms": [
                {"matching": list(m), "coefficient": c.to_json()}
                for m, c in sorted(self.terms.items())
            ],
        }


# ---------------------------------------------------------------------------
# Jones-Wenzl projectors.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def jones_wenzl(n: int, ring: RingSpec) -> TLElement:
    """The projector f_n: idempotent, identity coefficient 1, kills every
    cup-cap generator.  Built by the Wenzl recursion
    f_n = f' + ([n-1]/[n]) f' e_{n-1} f' with f' = f_{n-1} (x) id_1.

    In root-of-unity mode the construction needs every [k] with k <= n to be
    invertible, hence n <= p-2.
    """
    if n < 1:
        raise ValueError("jones_wenzl requires n >= 1")
    if ring.mode == "root_of_unity" and n > ring.p - 2:
        raise ValueError(
            f"jones_wenzl({n}) undefined in root-of-unity mode p={ring.p}: "
            f"requires n <= p-2 = {ring.p - 2}"
        )
    if n == 1:
        return TLElement.identity(ring, 1)
    prev = jones_wenzl(n - 1, ring).tensor(TLElement.identity(ring, 1))
    coeff = quantum_integer(ring, n - 1) / quantum_integer(ring, n)
    mid = prev.then(TLElement.hook(ring, n, n - 2)).then(prev)
    return prev + mid.scale(coeff)


# ---------------------------------------------------------------------------
# Closed bracket diagrams.  A diagram is a Morse word read bottom to top.
# ---------------------------------------------------------------------------

# row kind -> number of int fields
_BRACKET_ROWS = {"cup": 1, "cap": 1, "cross": 2}


def _checked_rows(rows, arity: dict) -> tuple:
    """`rows` as a tuple of tuples, each a row kind of `arity` followed by
    that many int fields; ValueError on any other shape or field type."""
    if not isinstance(rows, (list, tuple)):
        raise ValueError(f"rows must be a list, got {type(rows).__name__}")
    for row in rows:
        if not isinstance(row, (list, tuple)) or not row or not isinstance(row[0], str):
            raise ValueError(f"malformed row {row!r}: want a kind and integers")
        n = arity.get(row[0])
        if n is None:
            raise ValueError(f"unknown row kind {row[0]!r}")
        if len(row) != n + 1 or any(type(x) is not int for x in row[1:]):
            raise ValueError(f"malformed row {row!r}: want {[row[0]] + ['int'] * n}")
    return tuple(tuple(r) for r in rows)


@dataclass(frozen=True)
class PlanarDiagram:
    """A link diagram as a sequence of rows: ("cup", i), ("cap", i) or
    ("cross", i, sign).  Row indices refer to strand positions at the moment
    the row is applied, counted from zero on the left."""

    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", _checked_rows(self.rows, _BRACKET_ROWS))
        width = 0
        for row in self.rows:
            kind = row[0]
            if kind == "cup":
                _, i = row
                if not 0 <= i <= width:
                    raise ValueError(f"cup at {i} invalid at width {width}")
                width += 2
            elif kind == "cap":
                _, i = row
                if not 0 <= i <= width - 2:
                    raise ValueError(f"cap at {i} invalid at width {width}")
                width -= 2
            elif kind == "cross":
                _, i, sign = row
                if sign not in (1, -1):
                    raise ValueError("crossing sign must be +1 or -1")
                if not 0 <= i <= width - 2:
                    raise ValueError(f"crossing at {i} invalid at width {width}")
        object.__setattr__(self, "final_width", width)

    final_width: int = 0

    def is_closed(self) -> bool:
        return self.final_width == 0

    def to_json(self) -> dict:
        return {"rows": [list(r) for r in self.rows]}


def diagram_from_json(data: dict) -> PlanarDiagram:
    return PlanarDiagram(data.get("rows"))


def resolve_bracket(diagram: PlanarDiagram, ring: RingSpec) -> Scalar:
    """Kauffman bracket of a closed diagram.  Empty diagram evaluates to 1."""
    if not diagram.is_closed():
        raise ValueError(
            f"open diagram: {diagram.final_width} boundary points remain"
        )
    state = TLElement.identity(ring, 0)
    width = 0
    for row in diagram.rows:
        kind = row[0]
        if kind == "cup":
            state = state.then(TLElement.cup(ring, width, row[1]))
            width += 2
        elif kind == "cap":
            state = state.then(TLElement.cap(ring, width, row[1]))
            width -= 2
        else:
            state = state.then(TLElement.crossing(ring, width, row[1], row[2]))
    return state.coefficient(())


# ---------------------------------------------------------------------------
# Colored trivalent networks.  Rows, bottom to top:
#   ("cupnest", o, x)  insert x nested arcs spanning positions o..o+2x-1
#   ("capnest", o, x)  close x nested arcs at positions o..o+2x-1
#   ("proj", o, w)     Jones-Wenzl box f_w on strands o..o+w-1
# ---------------------------------------------------------------------------

_NETWORK_ROWS = {"cupnest": 2, "capnest": 2, "proj": 2}


@dataclass(frozen=True)
class NetworkTerm:
    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", _checked_rows(self.rows, _NETWORK_ROWS))
        width = 0
        peak = 0
        for row in self.rows:
            kind, o, x = row
            if kind == "cupnest":
                if not (x >= 0 and 0 <= o <= width):
                    raise ValueError(f"cupnest({o},{x}) invalid at width {width}")
                width += 2 * x
            elif kind == "capnest":
                if not (x >= 0 and 0 <= o and o + 2 * x <= width):
                    raise ValueError(f"capnest({o},{x}) invalid at width {width}")
                width -= 2 * x
            elif kind == "proj":
                if not (x >= 0 and 0 <= o and o + x <= width):
                    raise ValueError(f"proj({o},{x}) invalid at width {width}")
            peak = max(peak, width)
        object.__setattr__(self, "final_width", width)
        object.__setattr__(self, "peak_width", peak)

    final_width: int = 0
    peak_width: int = 0

    def is_closed(self) -> bool:
        return self.final_width == 0

    def to_json(self) -> dict:
        return {"rows": [list(r) for r in self.rows]}


def network_from_json(data: dict) -> NetworkTerm:
    return NetworkTerm(data.get("rows"))


def evaluate_network(
    net: NetworkTerm, ring: RingSpec, max_strands: int = DEFAULT_STRAND_BOUND
) -> Scalar:
    """Expand projector boxes and evaluate the closed network exactly."""
    if not net.is_closed():
        raise ValueError(f"open network: {net.final_width} strands remain")
    if net.peak_width > max_strands:
        raise ValueError(
            f"expanded strand count {net.peak_width} exceeds the bound "
            f"max_strands={max_strands}"
        )
    state = TLElement.identity(ring, 0)
    width = 0
    for row in net.rows:
        kind, o, x = row
        if kind == "cupnest":
            for k in range(x):
                state = state.then(TLElement.cup(ring, width, o + k))
                width += 2
        elif kind == "capnest":
            for k in reversed(range(x)):
                state = state.then(TLElement.cap(ring, width, o + k))
                width -= 2
        else:
            if x == 0:
                continue
            box = jones_wenzl(x, ring)
            if o > 0:
                box = TLElement.identity(ring, o).tensor(box)
            if width - o - x > 0:
                box = box.tensor(TLElement.identity(ring, width - o - x))
            state = state.then(box)
    return state.coefficient(())


def _check_vertex(i: int, j: int, k: int) -> None:
    if min(i, j, k) < 0:
        raise ValueError(f"negative color in vertex ({i},{j},{k})")
    if (i + j + k) % 2 != 0:
        raise ValueError(f"vertex ({i},{j},{k}) violates parity")
    if i + j < k or j + k < i or i + k < j:
        raise ValueError(f"vertex ({i},{j},{k}) violates the triangle bound")


def unknot_network(c: int) -> NetworkTerm:
    """An unknotted circle colored c."""
    if c < 0:
        raise ValueError("negative color")
    return NetworkTerm((("cupnest", 0, c), ("proj", 0, c), ("capnest", 0, c)))


def theta_network(a: int, b: int, c: int) -> NetworkTerm:
    """Two trivalent vertices joined by edges colored a, b, c.

    Built as cable c going up, splitting into cables a and b, merging back,
    and closing around; one projector box per edge.
    """
    _check_vertex(a, b, c)
    x = (a + b - c) // 2
    z = (a + c - b) // 2
    return NetworkTerm(
        (
            ("cupnest", 0, c),
            ("proj", 0, c),
            ("cupnest", z, x),
            ("proj", 0, a),
            ("proj", a, b),
            ("capnest", z, x),
            ("capnest", 0, c),
        )
    )


def tet_network(a: int, b: int, i: int, c: int, d: int, j: int) -> NetworkTerm:
    """The tetrahedral network with vertices (a,b,i), (c,d,i), (a,d,j), (b,c,j).

    Built bottom to top: cable i splits into d and c; d splits into a and j,
    c splits into j and b; the two j-halves close into the j-edge; a and b
    merge back into i, which closes around.
    """
    for triple in ((a, b, i), (c, d, i), (a, d, j), (b, c, j)):
        _check_vertex(*triple)
    return NetworkTerm(
        (
            ("cupnest", 0, i),
            ("proj", 0, i),
            ("cupnest", (i + d - c) // 2, (d + c - i) // 2),
            ("proj", 0, d),
            ("proj", d, c),
            ("cupnest", (d + a - j) // 2, (a + j - d) // 2),
            ("cupnest", a + j + (c + j - b) // 2, (j + b - c) // 2),
            ("proj", 0, a),
            ("proj", a, j),
            ("proj", a + 2 * j, b),
            ("capnest", a, j),
            ("capnest", (a + i - b) // 2, (a + b - i) // 2),
            ("capnest", 0, i),
        )
    )

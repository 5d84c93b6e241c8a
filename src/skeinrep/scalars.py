"""Exact coefficient arithmetic for skein computations.

Two rings are supported.  "generic" is the rational function field Q(A) in the
skein variable A, with elements kept as reduced numerator/denominator pairs of
Laurent polynomials over fractions.Fraction.  "root_of_unity" is the
cyclotomic field Q(zeta_4p) for an odd prime p >= 5, with A specialized to
zeta_4p (a primitive 4p-th root of unity) and elements stored as an integer
coordinate vector over one positive common denominator, modulo the 4p-th
cyclotomic polynomial.

Everything here is exact and immutable, so scalars can be dict keys and
results are reproducible bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction


def _is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class RingSpec:
    """Descriptor of the coefficient ring.

    mode "generic" is Q(A).  mode "root_of_unity" is Q(zeta_4p) with A mapped
    to zeta_4p; there A has multiplicative order 4p and A^(2p) = -1.
    """

    mode: str
    p: int | None = None

    def __post_init__(self) -> None:
        if self.mode == "generic":
            if self.p is not None:
                raise ValueError("generic ring takes no prime parameter")
        elif self.mode == "root_of_unity":
            if self.p is None or self.p < 5 or not _is_odd_prime(self.p):
                raise ValueError("root_of_unity ring needs an odd prime p >= 5")
        else:
            raise ValueError(f"unknown ring mode {self.mode!r}")

    @property
    def degree(self) -> int:
        """Dimension of Q(zeta_4p) over Q, which is phi(4p) = 2(p-1)."""
        if self.p is None:
            raise ValueError("generic ring has no finite degree")
        return 2 * (self.p - 1)

    @property
    def max_color(self) -> int | None:
        """Largest admissible edge color, p-2 at a root of unity."""
        return None if self.p is None else self.p - 2

    def describe(self) -> str:
        if self.mode == "generic":
            return "Q(A)"
        return f"Q(zeta_{4 * self.p}), p={self.p}"


GENERIC = RingSpec("generic")


def root_of_unity(p: int) -> RingSpec:
    return RingSpec("root_of_unity", p)


# ---------------------------------------------------------------------------
# Cyclotomic reduction tables.
#
# Phi_4p(x) = sum_{k=0}^{p-1} (-1)^k x^(2k) has degree 2(p-1); its roots are
# the primitive 4p-th roots of unity.  Elements are coordinate vectors in the
# basis 1, x, ..., x^(2p-3).

@functools.lru_cache(maxsize=None)
def _cyclotomic_4p(p: int) -> tuple[Fraction, ...]:
    coeffs = [Fraction(0)] * (2 * p - 1)
    for k in range(p):
        coeffs[2 * k] = Fraction(1 if k % 2 == 0 else -1)
    return tuple(coeffs)


@functools.lru_cache(maxsize=None)
def _power_reps(p: int) -> tuple[tuple[int, ...], ...]:
    """Reduced integer representatives of x^k mod Phi_4p for k = 0 .. 4p-1."""
    deg = 2 * (p - 1)
    head = [-int(c) for c in _cyclotomic_4p(p)[:deg]]  # x^deg = head(x), Phi_4p is monic
    reps = []
    cur = [0] * deg
    cur[0] = 1
    for _ in range(4 * p):
        reps.append(tuple(cur))
        top = cur[deg - 1]
        cur = [0] + cur[:-1]
        if top:
            cur = [c + top * h for c, h in zip(cur, head)]
    return tuple(reps)


def _vec_mul(p: int, a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """Product of two integer coordinate vectors, reduced mod Phi_4p."""
    if a.count(0) < b.count(0):
        a, b = b, a  # the outer loop skips zeros, so run it over the sparser factor
    deg = 2 * (p - 1)
    conv = [0] * (2 * deg - 1)
    for i, ai in enumerate(a):
        if ai:
            for k, bj in enumerate(b, i):
                conv[k] += ai * bj
    # x^(2p) = -1, then x^(2p-2) = -sum_k (-1)^k x^(2k) and x^(2p-1) = x * x^(2p-2)
    for k in range(2 * p, 2 * deg - 1):
        conv[k - 2 * p] -= conv[k]
    even, odd = conv[deg], conv[deg + 1]
    out = conv[:deg]
    for k in range(p - 1):
        if k % 2:
            out[2 * k] += even
            out[2 * k + 1] += odd
        else:
            out[2 * k] -= even
            out[2 * k + 1] -= odd
    return out


def _rational_parts(text) -> tuple[int, int]:
    """Numerator and positive denominator of a serialized coefficient."""
    if type(text) is str:
        num, sep, den = text.partition("/")
        try:
            n, m = int(num), int(den) if sep else 1
        except ValueError:
            pass
        else:
            if m > 0:
                return n, m
    q = Fraction(text)
    return q.numerator, q.denominator


# ---------------------------------------------------------------------------
# Dense polynomial helpers over Q, used for inversion and gcd reduction.
# Polynomials are lists of Fractions, index = exponent, no trailing zeros.

def _poly_trim(a: list[Fraction]) -> list[Fraction]:
    while a and not a[-1]:
        a.pop()
    return a

def _poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    while len(a) >= len(b) and _poly_trim(a):
        shift = len(a) - len(b)
        c = a[-1] * inv_lead
        q[shift] = c
        for i, bi in enumerate(b):
            a[shift + i] -= c * bi
        _poly_trim(a)
    return _poly_trim(q), a

def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a

def _poly_xgcd(a: list[Fraction], b: list[Fraction]):
    """Extended Euclid: returns (g, u, v) with u*a + v*b = g, g monic."""
    r0, r1 = list(a), list(b)
    u0, u1 = [Fraction(1)], []
    v0, v1 = [], [Fraction(1)]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _poly_sub(u0, _poly_mul(q, u1))
        v0, v1 = v1, _poly_sub(v0, _poly_mul(q, v1))
    if r0:
        lead = r0[-1]
        r0 = [c / lead for c in r0]
        u0 = [c / lead for c in u0]
        v0 = [c / lead for c in v0]
    return r0, u0, v0

def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] += ai * bj
    return _poly_trim(out)

def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    return _poly_trim(out)


# ---------------------------------------------------------------------------
# Laurent polynomial helpers: sparse dicts exponent -> nonzero Fraction.

def _lp_add(f: dict, g: dict) -> dict:
    out = dict(f)
    for e, c in g.items():
        s = out.get(e, Fraction(0)) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out

def _lp_mul(f: dict, g: dict) -> dict:
    out: dict[int, Fraction] = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = e1 + e2
            s = out.get(e, Fraction(0)) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out

def _lp_to_dense(f: dict) -> tuple[int, list[Fraction]]:
    """Split off the lowest exponent: f = A^shift * (ordinary polynomial)."""
    if not f:
        return 0, []
    shift = min(f)
    top = max(f)
    dense = [Fraction(0)] * (top - shift + 1)
    for e, c in f.items():
        dense[e - shift] = c
    return shift, dense

def _dense_to_lp(shift: int, dense: list[Fraction]) -> dict:
    return {shift + i: c for i, c in enumerate(dense) if c}

def _canon_fraction(num: dict, den: dict) -> tuple[tuple, tuple]:
    """Reduce num/den: coprime, denominator an ordinary monic polynomial with
    nonzero constant term (powers of A absorbed into the numerator)."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return (), ((0, Fraction(1)),)
    dshift, ddense = _lp_to_dense(den)
    nshift, ndense = _lp_to_dense(num)
    nshift -= dshift
    g = _poly_gcd(ndense, ddense)
    if len(g) > 1:
        ndense = _poly_divmod(ndense, g)[0]
        ddense = _poly_divmod(ddense, g)[0]
    lead = ddense[-1]
    if lead != 1:
        ndense = [c / lead for c in ndense]
        ddense = [c / lead for c in ddense]
    num_terms = tuple(sorted(_dense_to_lp(nshift, ndense).items()))
    den_terms = tuple(sorted(_dense_to_lp(0, ddense).items()))
    return num_terms, den_terms


def _lp_str(terms) -> str:
    if not terms:
        return "0"
    parts = []
    for e, c in sorted(terms, reverse=True):
        if e == 0:
            body = str(c)
        else:
            mon = "A" if e == 1 else f"A^{e}"
            if c == 1:
                body = mon
            elif c == -1:
                body = f"-{mon}"
            else:
                body = f"{c}*{mon}"
        parts.append(body)
    out = parts[0]
    for part in parts[1:]:
        out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
    return out


class Scalar:
    """Immutable ring element supporting exact +, -, *, /, ** and hashing.

    Generic payload: reduced Laurent fraction (num, den term tuples).
    Root-of-unity payload: the coordinate vector over the power basis of
    zeta_4p is _vec / _d, with _vec a tuple of ints and _d a positive int,
    in lowest terms (gcd(_d, *_vec) == 1), so zero is the zero vector over 1.
    """

    __slots__ = ("ring", "_vec", "_d", "_num", "_den", "_h")

    def __init__(self, ring: RingSpec, vec=None, num=None, den=None, d=1):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_vec", vec)
        object.__setattr__(self, "_d", d)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_h", None)

    @classmethod
    def _cyclotomic(cls, ring: RingSpec, vec, d: int) -> "Scalar":
        """The root-of-unity element vec / d (d > 0), reduced to lowest terms."""
        if d != 1:
            g = math.gcd(d, *vec)
            if g != 1:
                vec = [c // g for c in vec]
                d //= g
        return cls(ring, vec=tuple(vec), d=d)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Scalar is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, ring: RingSpec, q) -> "Scalar":
        q = Fraction(q)
        if ring.mode == "root_of_unity":
            vec = [0] * ring.degree
            vec[0] = q.numerator
            return cls(ring, vec=tuple(vec), d=q.denominator)
        num = ((0, q),) if q else ()
        return cls(ring, num=num, den=((0, Fraction(1)),))

    @classmethod
    def zero(cls, ring: RingSpec) -> "Scalar":
        return cls.from_rational(ring, 0)

    @classmethod
    def one(cls, ring: RingSpec) -> "Scalar":
        return cls.from_rational(ring, 1)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        if self._vec is not None:
            return not any(self._vec)
        return not self._num

    def is_one(self) -> bool:
        return self == 1

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- coercion ------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.ring != self.ring:
                raise ValueError("mixed rings: " + f"{self.ring} vs {other.ring}")
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar.from_rational(self.ring, other)
        return None

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._vec is not None:
            d1, d2 = self._d, o._d
            if d1 == d2:
                return Scalar._cyclotomic(self.ring, [a + b for a, b in zip(self._vec, o._vec)], d1)
            d = math.lcm(d1, d2)
            s1, s2 = d // d1, d // d2
            return Scalar._cyclotomic(
                self.ring, [a * s1 + b * s2 for a, b in zip(self._vec, o._vec)], d)
        n1, d1 = dict(self._num), dict(self._den)
        n2, d2 = dict(o._num), dict(o._den)
        num = _lp_add(_lp_mul(n1, d2), _lp_mul(n2, d1))
        num_t, den_t = _canon_fraction(num, _lp_mul(d1, d2))
        return Scalar(self.ring, num=num_t, den=den_t)

    __radd__ = __add__

    def __neg__(self):
        if self._vec is not None:
            return Scalar(self.ring, vec=tuple(-a for a in self._vec), d=self._d)
        return Scalar(self.ring, num=tuple((e, -c) for e, c in self._num), den=self._den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._vec is not None:
            return Scalar._cyclotomic(self.ring, _vec_mul(self.ring.p, self._vec, o._vec),
                                      self._d * o._d)
        num = _lp_mul(dict(self._num), dict(o._num))
        den = _lp_mul(dict(self._den), dict(o._den))
        num_t, den_t = _canon_fraction(num, den)
        return Scalar(self.ring, num=num_t, den=den_t)

    __rmul__ = __mul__

    def invert(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("inverting zero")
        if self._vec is not None:
            # (vec / d)^-1 = d * vec^-1, with vec^-1 from Euclid over Q
            p = self.ring.p
            poly = _poly_trim([Fraction(c) for c in self._vec])
            g, u, _ = _poly_xgcd(poly, list(_cyclotomic_4p(p)))
            if len(g) != 1:
                raise ZeroDivisionError("element is a zero divisor")  # cannot happen in a field
            inv = [c * self._d / g[0] for c in u]
            _, rem = _poly_divmod(inv, list(_cyclotomic_4p(p)))
            rem += [Fraction(0)] * (self.ring.degree - len(rem))
            d = math.lcm(*(c.denominator for c in rem))
            return Scalar._cyclotomic(self.ring, [c.numerator * (d // c.denominator) for c in rem], d)
        num_t, den_t = _canon_fraction(dict(self._den), dict(self._num))
        return Scalar(self.ring, num=num_t, den=den_t)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.invert()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.invert()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return Scalar.one(self.ring)
        base = self if n > 0 else self.invert()
        n = abs(n)
        out = None
        while n:
            if n & 1:
                out = base if out is None else out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- comparison and hashing ----------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other) if not isinstance(other, Scalar) else other
        if o is None or not isinstance(o, Scalar):
            return NotImplemented
        if self.ring != o.ring:
            return False
        if self._vec is not None:
            return self._vec == o._vec and self._d == o._d
        return self._num == o._num and self._den == o._den

    def __hash__(self):
        h = self._h
        if h is None:
            q = self.as_rational()
            if q is not None:
                h = hash(q)  # keep hash compatible with == against int/Fraction
            elif self._vec is not None:
                h = hash(("cyc", self.ring.p, self._vec, self._d))
            else:
                h = hash(("rf", self._num, self._den))
            object.__setattr__(self, "_h", h)
        return h

    # -- inspection ----------------------------------------------------------

    def as_rational(self) -> Fraction | None:
        """The value as a Fraction if it lies in Q, else None."""
        if self._vec is not None:
            if any(self._vec[1:]):
                return None
            return Fraction(self._vec[0], self._d)
        if self._den != ((0, Fraction(1)),):
            return None
        if not self._num:
            return Fraction(0)
        if len(self._num) == 1 and self._num[0][0] == 0:
            return self._num[0][1]
        return None

    def leading_degree(self) -> int:
        """Top A-degree of a nonzero generic element, deg(num) - deg(den)."""
        if self.ring.mode != "generic":
            raise ValueError("leading_degree is only defined over Q(A)")
        if not self._num:
            raise ValueError("leading_degree of zero is undefined")
        return self._num[-1][0] - self._den[-1][0]

    def numerator_terms(self) -> tuple:
        return self._num

    def denominator_terms(self) -> tuple:
        return self._den

    def is_laurent(self) -> bool:
        """True when the generic element has trivial denominator."""
        return self._den == ((0, Fraction(1)),)

    def __repr__(self):
        if self._vec is not None:
            terms = tuple((e, Fraction(c, self._d)) for e, c in enumerate(self._vec) if c)
            body = _lp_str(terms).replace("A", "z") if terms else "0"
            return f"<{body} | z=zeta_{4 * self.ring.p}>"
        num = _lp_str(self._num)
        if self.is_laurent():
            return num
        return f"({num})/({_lp_str(self._den)})"

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        if self._vec is not None:
            return {
                "mode": "root_of_unity",
                "p": self.ring.p,
                "coefficients": [str(Fraction(c, self._d)) for c in self._vec],
            }
        out = {
            "mode": "generic",
            "coefficients": {str(e): str(c) for e, c in self._num},
        }
        if not self.is_laurent():
            out["denominator"] = {str(e): str(c) for e, c in self._den}
        return out


def scalar_from_json(data: dict) -> Scalar:
    if data["mode"] == "root_of_unity":
        ring = root_of_unity(int(data["p"]))
        parts = [_rational_parts(c) for c in data["coefficients"]]
        if len(parts) != ring.degree:
            raise ValueError("coefficient vector has wrong length")
        d = math.lcm(*(m for _, m in parts))
        return Scalar._cyclotomic(ring, [n * (d // m) for n, m in parts], d)
    if data["mode"] == "generic":
        num = {int(e): Fraction(c) for e, c in data["coefficients"].items()}
        den = {int(e): Fraction(c) for e, c in data.get("denominator", {"0": "1"}).items()}
        num_t, den_t = _canon_fraction(num, den)
        return Scalar(GENERIC, num=num_t, den=den_t)
    raise ValueError(f"unknown scalar mode {data.get('mode')!r}")


def a_power(ring: RingSpec, k: int) -> Scalar:
    """The monomial A^k."""
    if ring.mode == "root_of_unity":
        return Scalar(ring, vec=_power_reps(ring.p)[k % (4 * ring.p)])
    return Scalar(ring, num=((k, Fraction(1)),), den=((0, Fraction(1)),))


def embed_generic(x: Scalar, ring: RingSpec) -> Scalar:
    """Specialize a generic scalar at A = zeta_4p."""
    if x.ring.mode != "generic":
        raise ValueError("embed_generic expects a generic scalar")
    if ring.mode != "root_of_unity":
        raise ValueError("target ring must be a root of unity")

    def ev(terms):
        out = Scalar.zero(ring)
        for e, c in terms:
            out = out + c * a_power(ring, e)
        return out

    den = ev(x.denominator_terms())
    if den.is_zero():
        raise ZeroDivisionError("denominator vanishes at this root of unity")
    return ev(x.numerator_terms()) / den


# ---------------------------------------------------------------------------
# Quantum integers.  [n] = A^(2(n-1)) + A^(2(n-3)) + ... + A^(-2(n-1)), so
# [0] = 0, [1] = 1, [2] = A^2 + A^-2, and [p] = 0 at A = zeta_4p.

@functools.lru_cache(maxsize=None)
def quantum_integer(ring: RingSpec, n: int) -> Scalar:
    if n < 0:
        raise ValueError("quantum integer of negative n")
    out = Scalar.zero(ring)
    for j in range(n):
        out = out + a_power(ring, 2 * (n - 1 - 2 * j))
    return out


@functools.lru_cache(maxsize=None)
def quantum_factorial(ring: RingSpec, n: int) -> Scalar:
    if n < 0:
        raise ValueError("quantum factorial of negative n")
    if n == 0:
        return Scalar.one(ring)
    return quantum_factorial(ring, n - 1) * quantum_integer(ring, n)


def loop_value(ring: RingSpec, c: int) -> Scalar:
    """Value of a closed loop colored c: (-1)^c [c+1].

    In root-of-unity mode the color must stay within 0..p-2; the projector
    defining the colored loop does not exist beyond that.
    """
    if c < 0:
        raise ValueError(f"loop color {c} is negative")
    if ring.mode == "root_of_unity" and c > ring.p - 2:
        raise ValueError(
            f"loop color {c} out of range for root-of-unity mode: want <= p-2 = {ring.p - 2}"
        )
    v = quantum_integer(ring, c + 1)
    return -v if c % 2 else v

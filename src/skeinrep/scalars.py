"""Exact coefficient arithmetic for skein computations.

Two rings are supported.  "generic" is the rational function field Q(A) in the
skein variable A, with elements kept as A^e * N(A) / D(A) for coprime integer
polynomials N and D with no common integer factor; products use Kronecker
substitution and the gcds the heuristic GCDHEU with a primitive-PRS fallback.
"root_of_unity" is the cyclotomic field Q(zeta_4p) for an odd prime p >= 5,
with A specialized to zeta_4p (a primitive 4p-th root of unity) and elements
stored as an integer coordinate vector over one positive common denominator,
modulo the 4p-th cyclotomic polynomial.

Everything here is exact and immutable, so scalars can be dict keys and
results are reproducible bit for bit.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
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
def _power_reps(p: int) -> tuple[tuple[int, ...], ...]:
    """Reduced integer representatives of x^k mod Phi_4p for k = 0 .. 4p-1."""
    deg = 2 * (p - 1)
    head = [0] * deg  # x^deg = head(x) = -sum_{k < p-1} (-1)^k x^(2k), Phi_4p is monic
    for k in range(p - 1):
        head[2 * k] = 1 if k % 2 else -1
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


@functools.lru_cache(maxsize=None)
def _galois_generator(p: int) -> int:
    """The least k = 1 (mod 4) whose residue generates (Z/p)^*, so that the
    units mod 4p are exactly the +-k^j for j < p-1."""
    return next(k for k in range(5, 4 * p, 4)
                if len({pow(k, j, p) for j in range(p - 1)}) == p - 1)


def _vec_mul(p: int, a, b) -> list[int]:
    """Product of two integer coordinate vectors, reduced mod Phi_4p."""
    if a.count(0) < b.count(0):
        a, b = b, a  # the outer loop skips zeros, so run it over the sparser factor
    conv = [0] * (4 * p - 5)
    for i, ai in enumerate(a):
        if ai:
            for k, bj in enumerate(b, i):
                conv[k] += ai * bj
    return _reduce(p, conv)


def _conjugate(p: int, vec, k: int) -> list[int]:
    """sigma_k(vec) for a unit k mod 4p: zeta_4p -> zeta_4p^k scatters the
    coordinate of x^i to x^(ik mod 4p), distinct for distinct i."""
    full = [0] * (4 * p)
    for i, c in enumerate(vec):
        if c:
            full[i * k % (4 * p)] = c
    return _reduce(p, full)


def _reduce(p: int, conv: list[int]) -> list[int]:
    """The coefficients of x^0 .. x^(n-1), 2p <= n <= 4p, reduced mod Phi_4p."""
    deg = 2 * (p - 1)
    # x^(2p) = -1, then x^(2p-2) = -sum_k (-1)^k x^(2k) and x^(2p-1) = x * x^(2p-2)
    for k in range(2 * p, len(conv)):
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
            if m == 0:
                raise ValueError(f"coefficient {text!r} has a zero denominator")
    try:
        q = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"coefficient {text!r} has a zero denominator") from None
    return q.numerator, q.denominator


# ---------------------------------------------------------------------------
# Integer polynomial helpers for the generic ring.  Polynomials are lists or
# tuples of ints, index = exponent, no trailing zeros.
#
# Products use Kronecker substitution: a polynomial whose coefficients lie
# below 2^(8nb-1) in magnitude is packed into its value at 2^(8nb), so that
# one big-int product gives the product polynomial, whose coefficients are
# read back as balanced base-2^(8nb) digits.  On a little-endian machine a
# digit of 2, 4 or 8 bytes is converted by the array module in C.

_SIGNED_ARRAY = ({array(code).itemsize: code for code in "hilq"}
                 if sys.byteorder == "little" else {})


def _poly_trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _digit_bytes(bits: int) -> int:
    """Bytes per digit that hold every signed value below 2^bits in magnitude."""
    for nb in (2, 4, 8):
        if bits < 8 * nb:
            return nb
    return bits // 64 * 8 + 8


@functools.lru_cache(maxsize=None)
def _digit_offset(n: int, nb: int) -> int:
    """The n-digit number whose base-2^(8nb) digits are all 2^(8nb-1)."""
    return int.from_bytes((bytes(nb - 1) + b"\x80") * n, "little")


def _pack(f, nb: int) -> int:
    """f(2^(8nb)), for coefficients below 2^(8nb-1) in magnitude."""
    code = _SIGNED_ARRAY.get(nb)
    if code:
        raw = array(code, f).tobytes()
    else:
        raw = b"".join(c.to_bytes(nb, "little", signed=True) for c in f)
    # two's-complement digits, XOR the sign bit: each digit becomes c + 2^(8nb-1)
    off = _digit_offset(len(f), nb)
    return (int.from_bytes(raw, "little") ^ off) - off


def _unpack(v: int, nb: int, n: int | None = None) -> list[int]:
    """The balanced base-2^(8nb) digits of v, lowest first, without trailing
    zeros; n is the digit count, or None to take enough for v."""
    if n is None:
        n = (abs(v).bit_length() + 1) // (8 * nb) + 1
    off = _digit_offset(n, nb)
    raw = ((v + off) ^ off).to_bytes(n * nb, "little")
    code = _SIGNED_ARRAY.get(nb)
    if code:
        out = array(code, raw).tolist()
    else:
        out = [int.from_bytes(raw[i:i + nb], "little", signed=True)
               for i in range(0, len(raw), nb)]
    while out and not out[-1]:
        out.pop()
    return out


def _norm_bits(f) -> int:
    """Bit length of the largest coefficient magnitude of f."""
    return max(max(f), -min(f)).bit_length()


def _ipoly_mul(f, g) -> list[int]:
    if not f or not g:
        return []
    if len(f) * len(g) <= 64 or min(len(f), len(g)) <= 2:  # schoolbook wins here
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if a:
                for k, b in enumerate(g, i):
                    out[k] += a * b
        return out
    nb = _digit_bytes(_norm_bits(f) + _norm_bits(g) + min(len(f), len(g)).bit_length())
    return _unpack(_pack(f, nb) * _pack(g, nb), nb, len(f) + len(g) - 1)


def _ipoly_gcd(f, g) -> tuple[list[int], list[int], list[int]]:
    """(h, f/h, g/h) for nonzero integer polynomials f and g, with h their
    greatest common divisor over Q, scaled to be primitive over Z.

    GCDHEU (Char, Geddes, Gonnet, J. Symbolic Comput. 7, 1989): with
    xi = 2^(8nb) >= 2 max(|f|, |g|) + 2, read h off the balanced xi-adic
    digits of gcd(f(xi), g(xi)) and divide out its content c; read both
    cofactors off the digits of f(xi) / h(xi) and g(xi) / h(xi), and keep
    them only if h * f/h == f and h * g/h == g exactly.  Then h is the gcd:
    a further common factor k (primitive over Z, degree >= 1) would need
    k(xi) to divide c, and c <= xi/2 because the digits are balanced, while
    every root of k lies below 1 + min(|f|, |g|) <= xi/2 in absolute value
    (Cauchy), so |k(xi)| > xi/2.  When the digits fail the check, a
    primitive PRS takes over.
    """
    f, g = list(f), list(g)
    if len(f) == 1 or len(g) == 1:
        return [1], f, g
    nb = _digit_bytes(max(_norm_bits(f), _norm_bits(g)))
    fx, gx = _pack(f, nb), _pack(g, nb)
    hx = math.gcd(fx, gx)
    h = _unpack(hx, nb)
    c = math.gcd(*h)  # an integer factor of f(xi) and g(xi) that no polynomial shares
    if c != 1:
        h, hx = [a // c for a in h], hx // c
    cf, cg = _unpack(fx // hx, nb), _unpack(gx // hx, nb)
    if (len(h) + len(cf) == len(f) + 1 and len(h) + len(cg) == len(g) + 1
            and _ipoly_mul(h, cf) == f and _ipoly_mul(h, cg) == g):
        return h, cf, cg
    h = _prs_gcd(f, g)
    return h, _ipoly_exact_div(f, h), _ipoly_exact_div(g, h)


def _primitive(f) -> list[int]:
    c = math.gcd(*f)
    return [a // c for a in f] if c != 1 else list(f)


def _prs_gcd(f, g) -> list[int]:
    """Primitive gcd over Z by the primitive polynomial remainder sequence."""
    f, g = _primitive(f), _primitive(g)
    if len(f) < len(g):
        f, g = g, f
    while len(g) > 1:
        r = list(f)  # pseudo-remainder of f by g, made primitive as it shrinks
        lead = g[-1]
        while len(r) >= len(g):
            c, shift = r[-1], len(r) - len(g)
            r = [a * lead for a in r]
            for i, b in enumerate(g, shift):
                r[i] -= c * b
            _poly_trim(r)
            if r:
                r = _primitive(r)
        if not r:
            return g
        f, g = g, r
    return [1]


def _ipoly_exact_div(f, h) -> list[int]:
    """f / h for integer polynomials where h divides f over Z."""
    r = list(f)
    q = [0] * (len(f) - len(h) + 1)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + len(h) - 1], h[-1])
        if rem:
            raise ArithmeticError("inexact polynomial division")
        q[k] = c
        if c:
            for i, b in enumerate(h, k):
                r[i] -= c * b
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return q


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

    Generic payload: A^_e * _num(A) / _den(A), with _num and _den tuples of
    ints (index = exponent) in the one canonical form: _num[0] != 0 unless
    the element is zero (then _num is empty, _den is (1,) and _e is 0),
    _den[0] != 0 and _den[-1] > 0, gcd(_num, _den) = 1 over Q, and the
    integer content of _num and _den together is 1.
    Root-of-unity payload: the coordinate vector over the power basis of
    zeta_4p is _vec / _d, with _vec a tuple of ints and _d a positive int,
    in lowest terms (gcd(_d, *_vec) == 1), so zero is the zero vector over 1.
    """

    __slots__ = ("ring", "_vec", "_d", "_num", "_den", "_e", "_h")

    def __init__(self, ring: RingSpec, vec=None, num=None, den=None, d=1, e=0):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_vec", vec)
        object.__setattr__(self, "_d", d)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_e", e)
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

    @classmethod
    def _fraction(cls, e: int, num: list[int], den: list[int], coprime: bool = False) -> "Scalar":
        """The generic element A^e * num / den in canonical form.

        num and den are int lists without trailing zeros, with den[0] != 0;
        coprime says that gcd(num, den) = 1 is already known.
        """
        if not num:
            return cls(GENERIC, num=(), den=(1,))
        if not num[0]:
            k = next(i for i, c in enumerate(num) if c)
            num, e = num[k:], e + k
        if not coprime:
            _, num, den = _ipoly_gcd(num, den)
        c = math.gcd(*num, *den)
        if den[-1] < 0:
            c = -c
        if c != 1:
            num = [a // c for a in num]
            den = [b // c for b in den]
        return cls(GENERIC, num=tuple(num), den=tuple(den), e=e)

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
        if not q:
            return cls(ring, num=(), den=(1,))
        return cls(ring, num=(q.numerator,), den=(q.denominator,))

    @classmethod
    def zero(cls, ring: RingSpec) -> "Scalar":
        return _rational_scalar(ring, 0)

    @classmethod
    def one(cls, ring: RingSpec) -> "Scalar":
        return _rational_scalar(ring, 1)

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
            return _rational_scalar(self.ring, other)
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
        if not self._num:
            return o
        if not o._num:
            return self
        n1, n2, e = self._num, o._num, min(self._e, o._e)
        if self._e > e:
            n1 = (0,) * (self._e - e) + n1
        if o._e > e:
            n2 = (0,) * (o._e - e) + n2
        d1, d2 = self._den, o._den
        if d1 == d2:
            den = d1
        else:
            n1, n2, den = _ipoly_mul(n1, d2), _ipoly_mul(n2, d1), _ipoly_mul(d1, d2)
        if len(n1) < len(n2):
            n1, n2 = n2, n1
        num = list(n1)
        for i, c in enumerate(n2):
            num[i] += c
        return Scalar._fraction(e, _poly_trim(num), den)

    __radd__ = __add__

    def __neg__(self):
        if self._vec is not None:
            return Scalar(self.ring, vec=tuple(-a for a in self._vec), d=self._d)
        return Scalar(self.ring, num=tuple(-c for c in self._num), den=self._den, e=self._e)

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
        if not self._num or not o._num:
            return Scalar.zero(self.ring)
        # each factor is reduced, so only num1/den2 and num2/den1 can share factors
        _, n1, d2 = _ipoly_gcd(self._num, o._den)
        _, n2, d1 = _ipoly_gcd(o._num, self._den)
        return Scalar._fraction(self._e + o._e, _ipoly_mul(n1, n2), _ipoly_mul(d1, d2),
                                coprime=True)

    __rmul__ = __mul__

    def invert(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("inverting zero")
        if self._vec is not None:
            # Norm identity: x^-1 = prod_{k != 1} sigma_k(x) / N(x), where sigma_k
            # maps zeta to zeta^k for each unit k mod 4p.  N(x), the product of
            # all conjugates, is fixed by every sigma_k and so lies in Q.  No
            # embedding of Q(zeta_4p) is real, so the conjugates pair off with
            # their complex conjugates and N(x) = prod |sigma(x)|^2 > 0 for x != 0.
            # With x = vec / d and y = prod_{k != 1} sigma_k(vec), x^-1 = d*y / N(vec).
            # The units mod 4p are the +-g^j, j < p-1, for g = _galois_generator(p),
            # so with x' = sigma_-1(x), t = x x' and R_n = prod_{j<n} sigma_g^j(t),
            # y = x' sigma_g(R_(p-2)).  R is built from the top bit of p-2 down by
            # R_2n = R_n sigma_g^n(R_n) and R_(n+1) = R_n sigma_g^n(t): O(log p)
            # products, where multiplying the conjugates one by one takes 2p-3.
            p, vec = self.ring.p, self._vec
            g, n4 = _galois_generator(p), 4 * p
            bar = _conjugate(p, vec, n4 - 1)
            t = _vec_mul(p, vec, bar)
            r, n = t, 1
            for bit in bin(p - 2)[3:]:
                r = _vec_mul(p, r, _conjugate(p, r, pow(g, n, n4)))
                n *= 2
                if bit == "1":
                    r = _vec_mul(p, r, _conjugate(p, t, pow(g, n, n4)))
                    n += 1
            y = _vec_mul(p, bar, _conjugate(p, r, g))
            norm = _vec_mul(p, vec, y)[0]
            return Scalar._cyclotomic(self.ring, [self._d * c for c in y], norm)
        num, den = self._den, self._num
        if den[-1] < 0:
            num, den = tuple(-c for c in num), tuple(-c for c in den)
        return Scalar(self.ring, num=num, den=den, e=-self._e)

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
        return self._num == o._num and self._den == o._den and self._e == o._e

    def __hash__(self):
        h = self._h
        if h is None:
            q = self.as_rational()
            if q is not None:
                h = hash(q)  # keep hash compatible with == against int/Fraction
            elif self._vec is not None:
                h = hash(("cyc", self.ring.p, self._vec, self._d))
            else:
                h = hash((self._e, self._num, self._den))
            object.__setattr__(self, "_h", h)
        return h

    # -- inspection ----------------------------------------------------------

    def as_rational(self) -> Fraction | None:
        """The value as a Fraction if it lies in Q, else None."""
        if self._vec is not None:
            if any(self._vec[1:]):
                return None
            return Fraction(self._vec[0], self._d)
        if not self._num:
            return Fraction(0)
        if self._e or len(self._num) != 1 or len(self._den) != 1:
            return None
        return Fraction(self._num[0], self._den[0])

    def leading_degree(self) -> int:
        """Top A-degree of a nonzero generic element, deg(num) - deg(den)."""
        if self.ring.mode != "generic":
            raise ValueError("leading_degree is only defined over Q(A)")
        if not self._num:
            raise ValueError("leading_degree of zero is undefined")
        return self._e + len(self._num) - len(self._den)

    def numerator_terms(self) -> tuple:
        """(exponent, Fraction) terms of the numerator over the monic denominator."""
        lead = self._den[-1]
        return tuple((self._e + i, Fraction(c, lead)) for i, c in enumerate(self._num) if c)

    def denominator_terms(self) -> tuple:
        """(exponent, Fraction) terms of the monic denominator, constant term nonzero."""
        lead = self._den[-1]
        return tuple((i, Fraction(c, lead)) for i, c in enumerate(self._den) if c)

    def is_laurent(self) -> bool:
        """True when the generic element has trivial denominator."""
        return len(self._den) == 1

    def __repr__(self):
        if self._vec is not None:
            terms = tuple((e, Fraction(c, self._d)) for e, c in enumerate(self._vec) if c)
            body = _lp_str(terms).replace("A", "z") if terms else "0"
            return f"<{body} | z=zeta_{4 * self.ring.p}>"
        num = _lp_str(self.numerator_terms())
        if self.is_laurent():
            return num
        return f"({num})/({_lp_str(self.denominator_terms())})"

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        if self._vec is not None:
            return {
                "mode": "root_of_unity",
                "p": self.ring.p,
                "coefficients": [_ratio_text(c, self._d) for c in self._vec],
            }
        out = {
            "mode": "generic",
            "coefficients": {str(e): str(c) for e, c in self.numerator_terms()},
        }
        if not self.is_laurent():
            out["denominator"] = {str(e): str(c) for e, c in self.denominator_terms()}
        return out


def _ratio_text(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` for d > 0, reduced with one gcd."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _integer_laurent(terms: dict) -> tuple[int, list[int], int]:
    """(shift, f, m) with the serialized Laurent polynomial equal to
    A^shift * f(A) / m, f an int list with f[0] and f[-1] nonzero, m > 0."""
    parts = {int(e): _rational_parts(c) for e, c in terms.items()}
    parts = {e: nm for e, nm in parts.items() if nm[0]}
    if not parts:
        return 0, [], 1
    lo = min(parts)
    m = math.lcm(*(d for _, d in parts.values()))
    f = [0] * (max(parts) - lo + 1)
    for e, (n, d) in parts.items():
        f[e - lo] = n * (m // d)
    return lo, f, m


def scalar_from_json(data: dict) -> Scalar:
    if data["mode"] == "root_of_unity":
        ring = root_of_unity(int(data["p"]))
        parts = [_rational_parts(c) for c in data["coefficients"]]
        if len(parts) != ring.degree:
            raise ValueError("coefficient vector has wrong length")
        d = math.lcm(*(m for _, m in parts))
        return Scalar._cyclotomic(ring, [n * (d // m) for n, m in parts], d)
    if data["mode"] == "generic":
        ne, num, nm = _integer_laurent(data["coefficients"])
        de, den, dm = _integer_laurent(data.get("denominator", {"0": "1"}))
        if not den:
            raise ValueError("generic scalar has a zero denominator")
        return Scalar._fraction(ne - de, [c * dm for c in num], [c * nm for c in den])
    raise ValueError(f"unknown scalar mode {data.get('mode')!r}")


def a_power(ring: RingSpec, k: int) -> Scalar:
    """The monomial A^k."""
    if ring.mode == "root_of_unity":
        return Scalar(ring, vec=_power_reps(ring.p)[k % (4 * ring.p)])
    return Scalar(ring, num=(1,), den=(1,), e=k)


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


@functools.lru_cache(maxsize=1024)
def _rational_scalar(ring: RingSpec, q) -> Scalar:
    """The constant q, for zero(), one() and int or Fraction operands; Scalar
    is immutable, so one object serves every use of the same value."""
    return Scalar.from_rational(ring, q)


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

"""Exact arithmetic in the generic ring Q(A) and the cyclotomic rings Q(zeta_4p)."""

import functools
import json
import random
from fractions import Fraction

import pytest

from skeinrep.certificates import to_canonical_json
from skeinrep.scalars import (
    GENERIC,
    RingSpec,
    Scalar,
    _cyclotomic_4p,
    _poly_divmod,
    _poly_trim,
    _poly_xgcd,
    a_power,
    embed_generic,
    loop_value,
    quantum_factorial,
    quantum_integer,
    root_of_unity,
    scalar_from_json,
)

R5 = root_of_unity(5)
R7 = root_of_unity(7)
RINGS = (GENERIC, R5, R7)


def _random_scalar(ring: RingSpec, rng: random.Random) -> Scalar:
    out = Scalar.zero(ring)
    for _ in range(rng.randint(1, 4)):
        coeff = Scalar.from_rational(ring, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        out = out + coeff * a_power(ring, rng.randint(-8, 8))
    return out


def test_ring_spec_construction():
    assert GENERIC.mode == "generic"
    assert R5.mode == "root_of_unity" and R5.p == 5
    assert R5.max_color == 3
    assert GENERIC.max_color is None
    for bad in (4, 6, 9, 1, -7):
        with pytest.raises(ValueError):
            root_of_unity(bad)


def test_primitive_root_relations():
    # zeta is a primitive 4p-th root: A^{4p} = 1 and A^{2p} = -1
    for p, ring in ((5, R5), (7, R7)):
        assert a_power(ring, 4 * p).is_one()
        assert (a_power(ring, 2 * p) + Scalar.one(ring)).is_zero()
        assert not a_power(ring, 2).is_one()


def test_field_axioms_sampled():
    rng = random.Random(20240)
    for ring in RINGS:
        for _ in range(25):
            x, y, z = (_random_scalar(ring, rng) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert x * y == y * x
            assert x * (y + z) == x * y + x * z
            if not y.is_zero():
                assert (x / y) * y == x
        # integer coercion goes through the same arithmetic
        x = _random_scalar(ring, rng)
        assert 2 * x == x + x
        assert x - x == Scalar.zero(ring)


def test_a_power_exponent_arithmetic():
    rng = random.Random(7)
    for ring in RINGS:
        for _ in range(20):
            i, j = rng.randint(-15, 15), rng.randint(-15, 15)
            assert a_power(ring, i) * a_power(ring, j) == a_power(ring, i + j)
        assert a_power(ring, 0).is_one()
        assert a_power(ring, -3) * a_power(ring, 3) == Scalar.one(ring)


def test_quantum_integer_closed_form():
    # [n] = (A^{2n} - A^{-2n}) / (A^2 - A^{-2})
    for ring in RINGS:
        denom = a_power(ring, 2) - a_power(ring, -2)
        for n in range(8):
            expected = (a_power(ring, 2 * n) - a_power(ring, -2 * n)) / denom
            assert quantum_integer(ring, n) == expected
    assert quantum_integer(GENERIC, 0).is_zero()
    assert quantum_integer(GENERIC, 1).is_one()
    assert quantum_integer(GENERIC, 2) == a_power(GENERIC, 2) + a_power(GENERIC, -2)


def test_quantum_integer_vanishing_at_root():
    for p, ring in ((5, R5), (7, R7)):
        assert quantum_integer(ring, p).is_zero()
        for n in range(1, p):
            assert not quantum_integer(ring, n).is_zero()
        assert not quantum_factorial(ring, p - 1).is_zero()
        assert quantum_factorial(ring, p).is_zero()


def test_loop_value():
    # closed loop colored c evaluates to (-1)^c [c+1]
    for ring in RINGS:
        assert loop_value(ring, 0).is_one()
        top = 6 if ring.max_color is None else ring.max_color + 1
        for c in range(top):
            expected = quantum_integer(ring, c + 1)
            if c % 2:
                expected = -expected
            assert loop_value(ring, c) == expected
    # colors past p-2 have no projector
    with pytest.raises(ValueError):
        loop_value(R5, 4)


def test_embed_generic_commutes_with_arithmetic():
    rng = random.Random(99)
    for ring in (R5, R7):
        for _ in range(15):
            x, y = _random_scalar(GENERIC, rng), _random_scalar(GENERIC, rng)
            assert embed_generic(x + y, ring) == embed_generic(x, ring) + embed_generic(y, ring)
            assert embed_generic(x * y, ring) == embed_generic(x, ring) * embed_generic(y, ring)
        for n in range(6):
            assert embed_generic(quantum_integer(GENERIC, n), ring) == quantum_integer(ring, n)


def test_leading_degree():
    x = a_power(GENERIC, 5) + a_power(GENERIC, -2)
    assert x.leading_degree() == 5
    assert (x / a_power(GENERIC, 7)).leading_degree() == -2
    with pytest.raises(ValueError):
        Scalar.zero(GENERIC).leading_degree()
    with pytest.raises(ValueError):
        a_power(R5, 2).leading_degree()


def test_invert_zero_raises():
    for ring in RINGS:
        with pytest.raises(ZeroDivisionError):
            Scalar.zero(ring).invert()


def test_as_rational():
    for ring in RINGS:
        assert Scalar.from_rational(ring, Fraction(3, 4)).as_rational() == Fraction(3, 4)
        assert a_power(ring, 2).as_rational() is None


def test_json_round_trip():
    rng = random.Random(314)
    for ring in RINGS:
        for _ in range(20):
            x = _random_scalar(ring, rng)
            if not x.is_zero():
                x = x / _nonzero(ring, rng)
            blob = json.dumps(x.to_json(), sort_keys=True)
            assert scalar_from_json(json.loads(blob)) == x


def _nonzero(ring: RingSpec, rng: random.Random) -> Scalar:
    while True:
        y = _random_scalar(ring, rng)
        if not y.is_zero():
            return y


def test_equal_scalars_hash_equal():
    x = quantum_integer(GENERIC, 3)
    y = a_power(GENERIC, 4) + Scalar.one(GENERIC) + a_power(GENERIC, -4)
    assert x == y and hash(x) == hash(y)


# ---------------------------------------------------------------------------
# Oracle for the integer-scaled root-of-unity kernel: the Fraction-vector
# product and the Fraction xgcd inverse it replaced, kept here as reference.

@functools.lru_cache(maxsize=None)
def _ref_power_reps(p):
    deg = 2 * (p - 1)
    head = [-c for c in _cyclotomic_4p(p)[:deg]]
    reps, cur = [], [Fraction(1)] + [Fraction(0)] * (deg - 1)
    for _ in range(4 * p):
        reps.append(tuple(cur))
        top = cur[deg - 1]
        cur = [Fraction(0)] + cur[:-1]
        if top:
            cur = [c + top * h for c, h in zip(cur, head)]
    return reps


def _ref_mul(p, a, b):
    deg = 2 * (p - 1)
    conv = [Fraction(0)] * (2 * deg - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            conv[i + j] += ai * bj
    out = [Fraction(0)] * deg
    for k, ck in enumerate(conv):
        for i, ri in enumerate(_ref_power_reps(p)[k]):
            out[i] += ck * ri
    return tuple(out)


def _ref_invert(p, a):
    phi = list(_cyclotomic_4p(p))
    g, u, _ = _poly_xgcd(_poly_trim(list(a)), phi)
    assert len(g) == 1
    _, rem = _poly_divmod([c / g[0] for c in u], phi)
    return tuple(rem + [Fraction(0)] * (2 * (p - 1) - len(rem)))


def _ref_json(p, a):
    return {"mode": "root_of_unity", "p": p, "coefficients": [str(c) for c in a]}


def _ref_vector(p, rng):
    dens = rng.choice(((1,), (1, 2, 3, 6), tuple(range(1, 16))))
    return tuple(Fraction(rng.randint(-9, 9), rng.choice(dens))
                 if rng.random() < 0.7 else Fraction(0)
                 for _ in range(2 * (p - 1)))


def _as_ref(x):
    return tuple(Fraction(c) for c in x.to_json()["coefficients"])


@pytest.mark.parametrize("p", (5, 7, 11, 13))
def test_integer_kernel_matches_fraction_reference(p):
    ring = root_of_unity(p)
    rng = random.Random(4000 + p)
    zero = (Fraction(0),) * ring.degree
    vectors = [_ref_vector(p, rng) for _ in range(10)]
    vectors += [zero, (Fraction(-7, 3),) + zero[1:], (Fraction(5),) + zero[1:]]
    scalars = [scalar_from_json(_ref_json(p, v)) for v in vectors]
    inverses = {}
    for k, (v, x) in enumerate(zip(vectors, scalars)):
        assert _as_ref(x) == v
        blob = to_canonical_json(x.to_json())
        assert blob == to_canonical_json(_ref_json(p, v))
        assert scalar_from_json(json.loads(blob)) == x
        if any(v):
            inverses[k] = _ref_invert(p, v)
            assert _ref_mul(p, v, inverses[k]) == (Fraction(1),) + zero[1:]
            assert _as_ref(x.invert()) == inverses[k]
    for k, (x, vx) in enumerate(zip(scalars, vectors)):
        n = (k + 1) % len(vectors)
        y, vy = scalars[n], vectors[n]
        assert _as_ref(x + y) == tuple(a + b for a, b in zip(vx, vy))
        assert _as_ref(x - y) == tuple(a - b for a, b in zip(vx, vy))
        assert _as_ref(x * y) == _ref_mul(p, vx, vy)
        if n in inverses:
            assert _as_ref(x / y) == _ref_mul(p, vx, inverses[n])


def test_rational_scalars_hash_like_rationals():
    for ring in (R5, root_of_unity(13), GENERIC):
        for q in (0, 1, -4, Fraction(3, 7), Fraction(-22, 5)):
            x = Scalar.from_rational(ring, q)
            assert x == q and hash(x) == hash(q)
            assert x.as_rational() == q
    # coefficients need not arrive in lowest terms
    x = scalar_from_json(_ref_json(5, ("2/4", "0/3") + ("0",) * 6))
    assert x == Fraction(1, 2) and x.to_json() == _ref_json(5, ("1/2",) + ("0",) * 7)

"""Exact arithmetic in the generic ring Q(A) and the cyclotomic rings Q(zeta_4p)."""

import functools
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

import skeinrep.scalars as scalars_module
from skeinrep.certificates import to_canonical_json
from skeinrep.recoupling import theta
from skeinrep.scalars import (
    GENERIC,
    RingSpec,
    Scalar,
    _ipoly_gcd,
    _ipoly_mul,
    _poly_trim,
    _prs_gcd,
    a_power,
    embed_generic,
    loop_value,
    quantum_factorial,
    quantum_integer,
    root_of_unity,
    scalar_from_json,
)
from skeinrep.spaces import is_admissible_triple
from skeinrep.twists import pure_braid_twist

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
# Dense polynomial arithmetic over Q for the oracles below.  Polynomials are
# lists of Fractions, index = exponent, no trailing zeros.

def _poly_divmod(a, b):
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


def _poly_xgcd(a, b):
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


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    return _poly_trim(out)


def _cyclotomic_4p(p):
    """Phi_4p(x) = sum_{k=0}^{p-1} (-1)^k x^(2k), as Fractions."""
    coeffs = [Fraction(0)] * (2 * p - 1)
    for k in range(p):
        coeffs[2 * k] = Fraction(1 if k % 2 == 0 else -1)
    return coeffs


# ---------------------------------------------------------------------------
# Oracle for the integer-scaled root-of-unity kernel: the Fraction-vector
# product and the Fraction xgcd inverse that the integer product and the
# norm inverse replaced, kept here as reference.

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
    phi = _cyclotomic_4p(p)
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
    # the values the 6j path inverts: every [r] and every admissible theta
    vectors += [_as_ref(quantum_integer(ring, r)) for r in range(1, p)]
    vectors += [_as_ref(theta(*t, ring))
                for t in itertools.combinations_with_replacement(range(p - 1), 3)
                if is_admissible_triple(*t, ring)]
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


@pytest.mark.parametrize("p", (17, 19, 23))
def test_norm_inverse_chain_matches_fraction_reference(p):
    # Galois group orders 16, 18 and 22: the chain for p-2 = 15, 17 and 21
    # (binary 1111, 10001, 10101) takes the conjugate-of-t step after every
    # doubling, after the last one only, and after every other one.  The
    # random vectors are sparse, which keeps the Fraction xgcd fast.
    ring = root_of_unity(p)
    rng = random.Random(5000 + p)
    vectors = []
    for _ in range(3):
        v, d = [Fraction(0)] * ring.degree, rng.randint(1, 9)
        for i in rng.sample(range(ring.degree), 4):
            v[i] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), d)
        vectors.append(tuple(v))
    vectors += [_as_ref(quantum_integer(ring, r)) for r in range(1, p)]
    for v in vectors:
        if any(v):
            x = scalar_from_json(_ref_json(p, v))
            assert _as_ref(x.invert()) == _ref_invert(p, v)
            assert x * x.invert() == 1


def test_conjugation_matches_power_reps():
    for p in (5, 7):
        reps = scalars_module._power_reps(p)
        g = scalars_module._galois_generator(p)
        units = {k for k in range(4 * p) if k % 2 and k % p}
        assert g % 4 == 1 and {s * pow(g, j, 4 * p) % (4 * p) for s in (1, -1)
                               for j in range(p - 1)} == units
        rng = random.Random(p)
        vectors = [[rng.randint(-9, 9) for _ in range(2 * (p - 1))] for _ in range(4)]
        vectors += [list(reps[i]) for i in range(2 * (p - 1))]
        for k in sorted(units):
            for vec in vectors:
                want = [0] * len(vec)
                for i, c in enumerate(vec):
                    want = [a + c * r for a, r in zip(want, reps[i * k % (4 * p)])]
                assert scalars_module._conjugate(p, vec, k) == want, (p, k, vec)


def test_root_of_unity_coefficients_print_like_fractions():
    # to_json reduces each coefficient c/d with one gcd; the text must be
    # str(Fraction(c, d)), zero and negative numerators included
    rng = random.Random(77)
    pairs = [(n, d) for n in range(-12, 13) for d in range(1, 13)]
    pairs += [(rng.randint(-10**30, 10**30), rng.randint(1, 10**20)) for _ in range(500)]
    pairs += [(0, 10**20), (-(2**70), 2**64), (3**40, 3**41), (-(3**41), 3**40)]
    for n, d in pairs:
        assert scalars_module._ratio_text(n, d) == str(Fraction(n, d)), (n, d)
    # every admissible theta at p = 11, every [r] and its inverse
    ring = root_of_unity(11)
    corpus = [theta(*t, ring) for t in itertools.combinations_with_replacement(range(10), 3)
              if is_admissible_triple(*t, ring)]
    corpus += [quantum_integer(ring, r) for r in range(1, 11)]
    corpus += [x.invert() for x in corpus if not x.is_zero()]
    corpus += [Scalar.zero(ring), -Scalar.one(ring) / 6]
    for x in corpus:
        assert x.to_json()["coefficients"] == [str(Fraction(c, x._d)) for c in x._vec]


def test_rational_scalars_hash_like_rationals():
    for ring in (R5, root_of_unity(13), GENERIC):
        for q in (0, 1, -4, Fraction(3, 7), Fraction(-22, 5)):
            x = Scalar.from_rational(ring, q)
            assert x == q and hash(x) == hash(q)
            assert x.as_rational() == q
    # coefficients need not arrive in lowest terms
    x = scalar_from_json(_ref_json(5, ("2/4", "0/3") + ("0",) * 6))
    assert x == Fraction(1, 2) and x.to_json() == _ref_json(5, ("1/2",) + ("0",) * 7)


# ---------------------------------------------------------------------------
# Oracle for the integer-coefficient generic kernel: the Fraction Laurent
# arithmetic and Euclid gcd it replaced, kept here as reference.  A reference
# element is a (numerator, denominator) pair of sorted (exponent, Fraction)
# term tuples, the denominator monic with a nonzero constant term.

def _ref_lp_add(f, g):
    out = dict(f)
    for e, c in g.items():
        s = out.get(e, Fraction(0)) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _ref_lp_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = e1 + e2
            s = out.get(e, Fraction(0)) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _ref_lp_to_dense(f):
    if not f:
        return 0, []
    shift = min(f)
    dense = [Fraction(0)] * (max(f) - shift + 1)
    for e, c in f.items():
        dense[e - shift] = c
    return shift, dense


def _ref_poly_gcd(a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    if a:
        a = [c / a[-1] for c in a]
    return a


def _ref_canon(num, den):
    num, den = dict(num), dict(den)
    assert den
    if not num:
        return (), ((0, Fraction(1)),)
    dshift, ddense = _ref_lp_to_dense(den)
    nshift, ndense = _ref_lp_to_dense(num)
    nshift -= dshift
    g = _ref_poly_gcd(ndense, ddense)
    if len(g) > 1:
        ndense = _poly_divmod(ndense, g)[0]
        ddense = _poly_divmod(ddense, g)[0]
    lead = ddense[-1]
    ndense = [c / lead for c in ndense]
    ddense = [c / lead for c in ddense]
    return (tuple((nshift + i, c) for i, c in enumerate(ndense) if c),
            tuple((i, c) for i, c in enumerate(ddense) if c))


def _ref_gen_add(x, y):
    (n1, d1), (n2, d2) = (tuple(map(dict, x)), tuple(map(dict, y)))
    return _ref_canon(_ref_lp_add(_ref_lp_mul(n1, d2), _ref_lp_mul(n2, d1)), _ref_lp_mul(d1, d2))


def _ref_gen_mul(x, y):
    return _ref_canon(_ref_lp_mul(dict(x[0]), dict(y[0])), _ref_lp_mul(dict(x[1]), dict(y[1])))


def _ref_gen_neg(x):
    return tuple((e, -c) for e, c in x[0]), x[1]


def _ref_gen_inv(x):
    return _ref_canon(x[1], x[0])


def _ref_generic_json(x):
    out = {"mode": "generic", "coefficients": {str(e): str(c) for e, c in x[0]}}
    if x[1] != ((0, Fraction(1)),):
        out["denominator"] = {str(e): str(c) for e, c in x[1]}
    return out


def _terms(x):
    return x.numerator_terms(), x.denominator_terms()


def _ref_laurent(rng, span=6):
    out = {}
    for _ in range(rng.randint(1, 5)):
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        if c:
            out[rng.randint(-span, span)] = c
    return out or {rng.randint(-span, span): Fraction(rng.randint(1, 3))}


def _ref_fraction_doc(num, den):
    """A serialized generic scalar num/den, neither reduced nor monic."""
    return {"mode": "generic",
            "coefficients": {str(e): str(c) for e, c in num.items()},
            "denominator": {str(e): str(c) for e, c in den.items()}}


def test_generic_kernel_matches_fraction_reference():
    rng = random.Random(5005)
    q2 = {2: Fraction(1), -2: Fraction(1)}
    shared = [q2, _ref_lp_mul(q2, q2), {4: Fraction(1), 0: Fraction(1), -4: Fraction(1)},
              {0: Fraction(2, 3), 3: Fraction(-1)}, {-1: Fraction(1), 1: Fraction(-5, 2)}]
    common_den = _ref_lp_mul(shared[0], {0: Fraction(3), 2: Fraction(1)})
    docs, refs = [], []
    for k in range(24):
        factor = rng.choice(shared) if k % 3 else _ref_laurent(rng, 3)
        num = _ref_lp_mul(_ref_laurent(rng), factor)
        den = _ref_lp_mul(common_den if k % 4 == 0 else _ref_laurent(rng), factor)
        docs.append(_ref_fraction_doc(num, den))
        refs.append(_ref_canon(num, den))
    docs.append({"mode": "generic", "coefficients": {}})
    refs.append(((), ((0, Fraction(1)),)))
    for q in (Fraction(-7, 3), Fraction(4)):
        docs.append({"mode": "generic", "coefficients": {"0": str(q)}})
        refs.append((((0, q),), ((0, Fraction(1)),)))
    scalars = [scalar_from_json(doc) for doc in docs]
    for x, rx in zip(scalars, refs):
        assert _terms(x) == rx
        blob = to_canonical_json(x.to_json())
        assert blob == to_canonical_json(_ref_generic_json(rx))
        assert scalar_from_json(json.loads(blob)) == x
        if rx[0]:
            assert x.leading_degree() == rx[0][-1][0] - rx[1][-1][0]
            assert _terms(x.invert()) == _ref_gen_inv(rx)
            assert _terms(x ** -2) == _ref_gen_mul(_ref_gen_inv(rx), _ref_gen_inv(rx))
            assert x * x.invert() == 1 and hash(x * x.invert()) == hash(1)
        assert _terms(x ** 3) == _ref_gen_mul(rx, _ref_gen_mul(rx, rx))
    for k, (x, rx) in enumerate(zip(scalars, refs)):
        for n in ((k + 1) % len(scalars), (k + 4) % len(scalars)):
            y, ry = scalars[n], refs[n]
            assert _terms(x + y) == _ref_gen_add(rx, ry)
            assert _terms(x - y) == _ref_gen_add(rx, _ref_gen_neg(ry))
            assert _terms(x * y) == _ref_gen_mul(rx, ry)
            assert (x == y) == (rx == ry)
            if ry[0]:
                assert _terms(x / y) == _ref_gen_mul(rx, _ref_gen_inv(ry))
    for q in (0, 1, -4, Fraction(3, 7), Fraction(-22, 5)):
        assert hash(Scalar.from_rational(GENERIC, q)) == hash(q)
        assert hash(scalars[0] - scalars[0] + q) == hash(q)


def _random_ipoly(rng, terms, bits):
    f = [rng.randint(-(1 << bits), 1 << bits) for _ in range(terms)]
    f[0] = f[0] or 1
    f[-1] = f[-1] or 1
    return f


def _coprime_mod(f, g, p=(1 << 61) - 1):
    """True when f and g are coprime mod the prime p, with f[-1] a unit mod p;
    then they are coprime over Q as well."""
    assert f[-1] % p
    a, b = [c % p for c in f], [c % p for c in g]
    while b:
        while b and not b[-1]:
            b.pop()
        if not b:
            break
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c, shift = a[-1] * inv % p, len(a) - len(b)
            for i, bi in enumerate(b, shift):
                a[i] = (a[i] - c * bi) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


def _check_gcd(f, g, h, cf, cg):
    """h is the primitive gcd of f and g, with exact cofactors cf and cg."""
    assert _ipoly_mul(h, cf) == f and _ipoly_mul(h, cg) == g
    assert math.gcd(*h) == 1
    assert _coprime_mod(cf, cg)


def test_integer_gcd_paths_agree(monkeypatch):
    fallbacks = []

    def recording_prs_gcd(f, g):
        fallbacks.append((list(f), list(g)))
        return _prs_gcd(f, g)

    monkeypatch.setattr(scalars_module, "_prs_gcd", recording_prs_gcd)
    rng = random.Random(8080)
    # random h*F, h*G pairs; bits >= 20 puts the coefficients past the
    # min(B, 99 sqrt(B)) cap of a capped evaluation point, and bits = 140
    # needs digits wider than 8 bytes
    for bits, terms in ((3, 24), (12, 24), (20, 24), (24, 24), (40, 24), (48, 24), (140, 12)):
        for _ in range(6):
            h = _random_ipoly(rng, rng.randint(1, terms // 2), bits // 2)
            f = _ipoly_mul(h, _random_ipoly(rng, rng.randint(1, terms), bits // 2))
            g = _ipoly_mul(h, _random_ipoly(rng, rng.randint(1, terms), bits // 2))
            got = _ipoly_gcd(f, g)
            _check_gcd(f, g, *got)
            prs = _prs_gcd(f, g)
            assert got[0] in (prs, [-c for c in prs])
            assert [Fraction(c, prs[-1]) for c in prs] == _ref_poly_gcd(
                [Fraction(c) for c in f], [Fraction(c) for c in g])
    assert not fallbacks
    # digits of the right lengths whose product is not f: only the product check
    # rejects them
    f, g = [-3864, -7896, 5376, 4326], [840, -9534]
    _check_gcd(f, g, *_ipoly_gcd(f, g))
    assert fallbacks == [(f, g)]
    fallbacks.clear()
    # a generic twist whose rewrite moves reach gcds the evaluation misses:
    # gcd(f(xi), g(xi)) carries an integer factor too large to divide out
    pure_braid_twist(5, (2, 4), (2, 3, 3, 2, 2), GENERIC)
    real = list(fallbacks)
    assert real
    for f, g in real:
        _check_gcd(f, g, *_ipoly_gcd(f, g))
    assert fallbacks == real + real

"""Density certificates: weight analysis, twist spectra, the inductive driver."""

import copy
import itertools

import pytest
from certtables import expand

from skeinrep.certificates import (
    CERTIFIED,
    NOT_APPLICABLE,
    VACUOUS,
    replay_certificate,
)
from skeinrep.density import (
    certify_density,
    dimension_conditions,
    eigenvalue_set,
    infinite_order_ratio,
    noniso_check,
    tet_nonzero_generic,
    weight_scalar_analysis,
)
from skeinrep.scalars import GENERIC, a_power
from skeinrep.spaces import dimension


def test_tet_nonzero_generic():
    ok, report = tet_nonzero_generic(1, 1, 2, 1, 1, 2)
    assert ok
    assert report["max_degree"] == max(report["summand_degrees"])
    ok, _ = tet_nonzero_generic(2, 2, 2, 2, 2, 2)
    assert ok
    with pytest.raises(ValueError):
        tet_nonzero_generic(1, 1, 1, 1, 1, 1)


def test_tet_nonzero_exhaustive_small():
    # no admissible frame with colors <= 4 sums to zero generically
    count = 0
    for frame in itertools.product(range(5), repeat=6):
        try:
            ok, _ = tet_nonzero_generic(*frame)
        except ValueError:
            continue
        count += 1
        assert ok, frame
    assert count > 100


def test_infinite_order_ratio():
    assert infinite_order_ratio(0) == -a_power(GENERIC, 8)
    assert infinite_order_ratio(1) == -a_power(GENERIC, 12)
    for i in range(30):
        r = infinite_order_ratio(i)
        assert not r.is_zero()
        assert r.leading_degree() == 4 * i + 8
    with pytest.raises(ValueError):
        infinite_order_ratio(-1)


def test_weight_analysis_full_verdicts():
    out = weight_scalar_analysis((1, 9, 25))
    assert out["verdict"] == "SL_FULL(3)"
    assert out["first_gap"] == 8 and out["first_gap_unique"]
    assert weight_scalar_analysis((0, 4))["verdict"] == "SL_FULL(2)"
    # consecutive square weights stay conclusive at any length
    for n in range(2, 8):
        w = tuple(i * (i + 2) for i in range(n))
        assert weight_scalar_analysis(w)["verdict"] == f"SL_FULL({n})"


def test_weight_analysis_inconclusive():
    out = weight_scalar_analysis((0, 4, 8))
    assert out["verdict"] == "INCONCLUSIVE"
    assert out["collision"] == [1, 2]
    out = weight_scalar_analysis((0, 10, 12))
    assert out["verdict"] == "INCONCLUSIVE"
    assert out["decomposition"] == [2, 2, 2, 2, 2]
    out = weight_scalar_analysis((0, 0, 4))
    assert out["verdict"] == "INCONCLUSIVE"
    assert "repeated" in out["reason"]


def test_weight_analysis_shift_invariant():
    for w in ((1, 9, 25), (0, 4, 8), (0, 10, 12), (0, 8, 24, 48)):
        base = weight_scalar_analysis(w)
        for s in (-7, 3, 100):
            shifted = weight_scalar_analysis(tuple(x + s for x in w))
            assert shifted["verdict"] == base["verdict"], (w, s)


def test_weight_analysis_validation():
    with pytest.raises(ValueError):
        weight_scalar_analysis((3,))


def test_eigenvalue_set_golden():
    es = eigenvalue_set(1, (1, 1, 1))
    assert es.colors == (0, 2)
    assert es.exponents == (0, 8)
    assert eigenvalue_set(2, (1, 1, 1)).colors == ()  # parity mismatch
    assert eigenvalue_set(0, (1, 1, 2)).colors == (1,)
    assert eigenvalue_set(2, (1, 1, 2)).colors == (1, 3)


def test_eigenvalue_set_validation():
    with pytest.raises(ValueError):
        eigenvalue_set(-1, (1, 1, 1))
    with pytest.raises(ValueError):
        eigenvalue_set(0, (1,))
    with pytest.raises(ValueError):
        eigenvalue_set(0, (2, 1, 1))  # not nondecreasing


def test_eigenvalue_set_counts_match_dimension():
    # |E_a| equals the dimension of the sphere space with boundary (a, fixed)
    for fixed in itertools.combinations_with_replacement(range(4), 3):
        for a in range(7):
            es = eigenvalue_set(a, fixed)
            want = dimension(0, len(fixed) + 1, (a,) + tuple(fixed), GENERIC)
            assert len(es.colors) == want, (a, fixed)


def test_eigenvalue_set_governance_flags():
    es = eigenvalue_set(0, (2, 2, 2))
    assert es.lower_governed_by_a and es.colors == (2,)
    es = eigenvalue_set(6, (2, 2, 2))
    assert not es.upper_governed_by_a
    assert es.colors == (4,)


def test_noniso_certificates():
    for fixed in ((1, 1, 2), (2, 2, 2), (1, 2, 3)):
        cert = noniso_check(fixed)
        assert cert.status == CERTIFIED, fixed
        assert cert.claim == "summands-pairwise-distinct"
        status, problems = replay_certificate(cert.to_json())
        assert status == CERTIFIED and not problems
    cert = noniso_check((1, 1, 2), a_values=(0, 2))
    assert cert.status == CERTIFIED
    with pytest.raises(ValueError):
        noniso_check((2, 1))


def test_noniso_replay_rejects_tampered_exponents():
    cert = noniso_check((1, 1, 2))
    doc = expand(cert.to_json())
    bad = copy.deepcopy(doc)
    wit = bad["checks"][0]["witness"]
    assert wit["kind"] == "exponent_separation"
    wit["sets"][0]["exponents"][0] += 2
    status, problems = replay_certificate(bad)
    assert problems


def test_dimension_conditions():
    ok, report = dimension_conditions((1, 3, 4))
    assert ok and report["ones"] == [0] and report["twos"] == []
    ok, _ = dimension_conditions((1, 1, 5))
    assert not ok
    ok, _ = dimension_conditions((2, 2))
    assert not ok
    ok, _ = dimension_conditions((3, 4, 5))
    assert ok


def test_certify_density_base_cases():
    cert = certify_density((1, 1, 1, 1))
    assert cert.status == CERTIFIED
    names = [c.name for c in cert.checks]
    for want in (
        "tet-nonvanishing",
        "twist-ratio-infinite-order",
        "twist-weights-force-full-group",
    ):
        assert want in names, names
    assert not replay_certificate(cert.to_json())[1]

    assert certify_density((3, 3, 3, 3)).status == CERTIFIED
    assert certify_density((4, 3, 4, 3)).status == CERTIFIED
    assert certify_density((1, 1, 1, 3)).status == VACUOUS  # dim 1
    assert certify_density((1, 1, 1, 2)).status == VACUOUS  # dim 0
    assert certify_density((1, 1, 1)).status == NOT_APPLICABLE


def test_certify_density_induction():
    cert = certify_density((1, 1, 1, 1, 2))
    assert cert.status == CERTIFIED
    # children: distinctness of summands plus one recursion per realized channel
    claims = [ch.claim for ch in cert.children]
    assert "summands-pairwise-distinct" in claims
    statuses = sorted(ch.status for ch in cert.children)
    assert CERTIFIED in statuses
    assert not replay_certificate(cert.to_json())[1]

    for colors in ((2, 2, 2, 2, 2), (1, 1, 1, 1, 1, 1), (3, 3, 3, 3, 3, 3), (1, 2, 3, 4, 4)):
        cert = certify_density(colors)
        assert cert.status == CERTIFIED, colors
        assert not replay_certificate(cert.to_json())[1]
    assert certify_density((1, 2, 3, 4, 5)).status == VACUOUS


def test_certify_density_order_invariant():
    a = expand(certify_density((2, 1, 1, 1, 1)).to_json())
    b = expand(certify_density((1, 1, 2, 1, 1)).to_json())
    # same sorted instance, same certificate body
    assert a["status"] == b["status"] == CERTIFIED


def test_certify_density_validation():
    with pytest.raises(ValueError):
        certify_density((1, -1, 1, 1))

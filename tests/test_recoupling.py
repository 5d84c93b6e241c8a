"""Recoupling scalars: theta, tet, 6j symbols, fusion matrices.

Closed-form values are cross-checked against direct evaluation of the
corresponding colored networks, which goes through projector expansion and
bracket resolution and shares no code with the recoupling formulas.
"""

import itertools
import random

import pytest

from skeinrep.matrices import RingMatrix
from skeinrep.recoupling import (
    _product_of_quantum_factorials,
    fusion_matrix,
    middle_colors,
    sixj,
    tet,
    tet_summands,
    theta,
)
from skeinrep.scalars import (
    GENERIC,
    Scalar,
    a_power,
    loop_value,
    quantum_factorial,
    root_of_unity,
)
from skeinrep.spaces import is_admissible_triple
from skeinrep.tl import evaluate_network, tet_network, theta_network

R5 = root_of_unity(5)
R7 = root_of_unity(7)


def tet_symmetry_images(colors: tuple) -> set:
    """All color tuples obtained from the tetrahedral symmetries: vertex
    permutations act on the six edges (edge = pair of vertices)."""
    # slot -> vertex pair, vertices 1..4 carrying (a,b,i), (c,d,i), (a,d,j), (b,c,j)
    pair_of_slot = (
        frozenset({1, 3}),  # a
        frozenset({1, 4}),  # b
        frozenset({1, 2}),  # i
        frozenset({2, 4}),  # c
        frozenset({2, 3}),  # d
        frozenset({3, 4}),  # j
    )
    slot_of_pair = {p: s for s, p in enumerate(pair_of_slot)}
    images = set()
    for sigma in itertools.permutations((1, 2, 3, 4)):
        relabel = {v: sigma[v - 1] for v in (1, 2, 3, 4)}
        out = [0] * 6
        for slot, pair in enumerate(pair_of_slot):
            new_pair = frozenset(relabel[v] for v in pair)
            out[slot_of_pair[new_pair]] = colors[slot]
        images.add(tuple(out))
    return images


def _admissible_triples(top: int, ring):
    for a, b, c in itertools.product(range(top + 1), repeat=3):
        if is_admissible_triple(a, b, c, ring):
            yield a, b, c


def test_theta_golden():
    A = lambda k: a_power(GENERIC, k)
    assert theta(1, 1, 2, GENERIC) == A(4) + 1 + A(-4)
    # theta with a zero edge degenerates to a colored loop
    for c in range(4):
        assert theta(c, c, 0, GENERIC) == loop_value(GENERIC, c)


def test_theta_matches_network():
    for ring in (GENERIC, R5):
        for a, b, c in _admissible_triples(3, ring):
            net = theta_network(a, b, c)
            assert theta(a, b, c, ring) == evaluate_network(net, ring), (a, b, c)


def test_theta_symmetric():
    for a, b, c in _admissible_triples(4, GENERIC):
        for perm in itertools.permutations((a, b, c)):
            assert theta(*perm, GENERIC) == theta(a, b, c, GENERIC)


def test_theta_inadmissible_rejected():
    with pytest.raises(ValueError):
        theta(1, 1, 1, GENERIC)
    with pytest.raises(ValueError):
        theta(1, 1, 4, GENERIC)
    with pytest.raises(ValueError):
        theta(2, 2, 4, R5)  # sum exceeds 2p - 4


def test_tet_matches_network_small():
    seen = set()
    for frame in itertools.product(range(3), repeat=6):
        if frame in seen:
            continue
        a, b, i, c, d, j = frame
        try:
            value = tet(a, b, i, c, d, j, GENERIC)
        except ValueError:
            continue
        seen |= tet_symmetry_images(frame)
        assert value == evaluate_network(tet_network(*frame), GENERIC), frame


def test_tet_symmetry_invariance():
    frames = [(1, 1, 2, 1, 1, 2), (2, 1, 1, 2, 1, 1), (2, 2, 2, 2, 2, 2), (1, 2, 3, 2, 1, 2)]
    for frame in frames:
        value = tet(*frame, GENERIC)
        images = tet_symmetry_images(frame)
        assert frame in images
        for image in images:
            assert tet(*image, GENERIC) == value, (frame, image)


def test_tet_degenerate_edge():
    # j = 0 forces d = a, c = b and the tet collapses to a theta
    for a, b, i in ((1, 1, 2), (2, 1, 1), (2, 2, 2)):
        assert tet(a, b, i, b, a, 0, GENERIC) == theta(a, b, i, GENERIC)


def test_tet_summands_sum():
    frame = (2, 2, 2, 2, 2, 2)
    total = sum(tet_summands(*frame, GENERIC), a_power(GENERIC, 0) - a_power(GENERIC, 0))
    assert total == tet(*frame, GENERIC)


def test_tet_inadmissible_rejected():
    with pytest.raises(ValueError):
        tet(1, 1, 1, 1, 1, 1, GENERIC)
    with pytest.raises(ValueError):
        tet(3, 3, 2, 3, 3, 2, R5)


def test_middle_colors():
    ring = GENERIC
    for a, b, c, d in ((1, 1, 1, 1), (2, 1, 1, 2), (1, 2, 3, 2)):
        mids = middle_colors(a, b, c, d, ring)
        expect = [
            i
            for i in range(a + b + 1)
            if is_admissible_triple(a, b, i, ring) and is_admissible_triple(c, d, i, ring)
        ]
        assert mids == expect
    # root-of-unity mode truncates the range
    assert middle_colors(3, 3, 3, 3, R5) != middle_colors(3, 3, 3, 3, GENERIC)


def test_sixj_golden():
    A = lambda k: a_power(GENERIC, k)
    assert sixj(1, 1, 2, 1, 1, 2, GENERIC) == (A(2)) / (A(4) + 1)


def test_factorial_quotients_match_fresh_products():
    # the quotient is cached by exponent signature, so argument lists that
    # cancel to the same signature share one value; each must still equal
    # the plain quotient of factorials
    rng = random.Random(1313)
    for ring, top in ((GENERIC, 7), (root_of_unity(11), 9)):
        for _ in range(40):
            num = [rng.randint(0, top) for _ in range(rng.randint(0, 4))]
            den = [rng.randint(0, top) for _ in range(rng.randint(0, 4))]
            want = Scalar.one(ring)
            for k in num:
                want = want * quantum_factorial(ring, k)
            for k in den:
                want = want * quantum_factorial(ring, k).invert()
            assert _product_of_quantum_factorials(ring, num, den) == want, (ring, num, den)
            assert _product_of_quantum_factorials(ring, num + den, den + num) == 1


def test_sixj_matches_uncached_quotient():
    rng = random.Random(611)
    for ring, top in ((GENERIC, 5), (root_of_unity(11), 9)):
        frames = [(a, b, i, c, d, j)
                  for a, b, c, d in itertools.product(range(top + 1), repeat=4)
                  for i in middle_colors(a, b, c, d, ring)
                  for j in middle_colors(a, d, c, b, ring)]
        for a, b, i, c, d, j in rng.sample(frames, 25):
            want = loop_value(ring, j) * tet(a, b, i, c, d, j, ring) / (
                theta(a, d, j, ring) * theta(b, c, j, ring))
            assert sixj(a, b, i, c, d, j, ring) == want, (ring, a, b, i, c, d, j)


def test_fusion_matrix_entries_are_sixj():
    for a, b, c, d in ((1, 1, 1, 1), (2, 1, 1, 2), (2, 2, 2, 2)):
        F = fusion_matrix(a, b, c, d, GENERIC)
        assert F.col_labels == tuple(middle_colors(a, b, c, d, GENERIC))
        assert F.row_labels == tuple(middle_colors(a, d, c, b, GENERIC))
        for j in F.row_labels:
            for i in F.col_labels:
                assert F.entry_by_label(j, i) == sixj(a, b, i, c, d, j, GENERIC)


def test_fusion_reverse_composition_is_identity():
    # re-expanding in the other pants decomposition inverts the change of basis
    for ring in (GENERIC, R7):
        for a, b, c, d in ((1, 1, 1, 1), (2, 1, 1, 2), (2, 2, 2, 2), (1, 2, 2, 1)):
            F = fusion_matrix(a, b, c, d, ring)
            G = fusion_matrix(a, d, c, b, ring)
            assert (G * F).is_identity(), (a, b, c, d)
            assert (F * G).is_identity(), (a, b, c, d)


def test_fusion_reverse_is_inverse_at_high_colors():
    # certificates use colors up to p-2 and take the fusion inverse from the
    # reverse matrix; pin that identity beyond the small-color sweeps
    rng = random.Random(1809)
    for p, count in ((11, 8), (13, 4)):
        ring = root_of_unity(p)
        frames = [
            f for f in itertools.product(range(p - 1), repeat=4)
            if max(f) >= p - 5 and len(middle_colors(*f, ring)) >= 3
        ]
        for a, b, c, d in rng.sample(frames, count):
            G = fusion_matrix(a, d, c, b, ring)
            assert (G * fusion_matrix(a, b, c, d, ring)).is_identity(), (p, a, b, c, d)


def test_fusion_matrix_zero_dimensional_rejected():
    with pytest.raises(ValueError):
        fusion_matrix(1, 1, 1, 2, GENERIC)  # odd total color, no admissible middle

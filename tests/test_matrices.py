"""Dense exact-entry matrices: algebra, labels, serialization."""

import random

import pytest

from skeinrep.matrices import RingMatrix, matrix_from_json
from skeinrep.scalars import GENERIC, Scalar, a_power, root_of_unity

R7 = root_of_unity(7)


def _random_invertible(ring, n: int, rng: random.Random) -> RingMatrix:
    # product of a unit diagonal and unit upper/lower triangular factors
    diag = RingMatrix.diagonal(ring, [a_power(ring, rng.randint(-4, 4)) for _ in range(n)])
    rows = [[Scalar.one(ring) if i == j else Scalar.zero(ring) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                rows[i][j] = a_power(ring, rng.randint(-3, 3))
    upper = RingMatrix(ring, tuple(tuple(r) for r in rows))
    return diag * upper


def test_identity_and_diagonal():
    I = RingMatrix.identity(GENERIC, 3)
    assert I.is_identity() and I.is_diagonal()
    D = RingMatrix.diagonal(GENERIC, [a_power(GENERIC, 2), a_power(GENERIC, -2)])
    assert D.is_diagonal() and not D.is_identity()
    assert D.entry(0, 0) == a_power(GENERIC, 2)
    assert D.entry(1, 1) == a_power(GENERIC, -2)
    assert (I * I).is_identity()


def test_multiplication_against_hand_product():
    one, z = Scalar.one(GENERIC), Scalar.zero(GENERIC)
    A2 = a_power(GENERIC, 2)
    M = RingMatrix(GENERIC, ((one, A2), (z, one)))
    N = RingMatrix(GENERIC, ((one, z), (A2, one)))
    P = M * N
    assert P.entry(0, 0) == one + A2 * A2
    assert P.entry(0, 1) == A2
    assert P.entry(1, 0) == A2
    assert P.entry(1, 1) == one


def test_inverse_round_trip():
    rng = random.Random(4242)
    for ring in (GENERIC, R7):
        for n in (1, 2, 3, 4):
            M = _random_invertible(ring, n, rng)
            assert (M * M.inverse()).is_identity()
            assert (M.inverse() * M).is_identity()


def test_singular_matrix_has_no_inverse():
    z, one = Scalar.zero(GENERIC), Scalar.one(GENERIC)
    M = RingMatrix(GENERIC, ((one, one), (one, one)))
    with pytest.raises(ValueError):
        M.inverse()


def test_labels_and_lookup():
    D = RingMatrix.diagonal(R7, [a_power(R7, 1), a_power(R7, 3)], labels=(0, 2))
    assert D.row_labels == (0, 2) and D.col_labels == (0, 2)
    assert D.entry_by_label(2, 2) == a_power(R7, 3)
    assert D.entry_by_label(0, 2).is_zero()
    with pytest.raises(Exception):
        D.entry_by_label(1, 1)


def test_scale_and_transpose():
    one, z = Scalar.one(GENERIC), Scalar.zero(GENERIC)
    M = RingMatrix(GENERIC, ((one, a_power(GENERIC, 2)), (z, one)))
    assert M.scale(a_power(GENERIC, 4)).entry(0, 0) == a_power(GENERIC, 4)
    S = RingMatrix.diagonal(GENERIC, [a_power(GENERIC, 2), a_power(GENERIC, 2)])
    assert S.is_scalar_multiple_of_identity()
    assert not M.is_scalar_multiple_of_identity()


def test_json_round_trip():
    rng = random.Random(5150)
    for ring in (GENERIC, R7):
        M = _random_invertible(ring, 3, rng)
        N = matrix_from_json(ring, M.to_json())
        assert N.rows == M.rows
    D = RingMatrix.diagonal(GENERIC, [a_power(GENERIC, 1)], labels=((0, 1, 0),))
    back = matrix_from_json(GENERIC, D.to_json())
    assert back.row_labels == D.row_labels

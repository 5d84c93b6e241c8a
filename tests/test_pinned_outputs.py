"""Root-of-unity and generic outputs pinned byte for byte.

Each entry is the first 12 hex digits of the SHA-256 of the output's
canonical JSON, recorded with the Fraction kernels that preceded the
integer-scaled ones (the genus-3 certificate was recorded with the plain
``json.dumps`` writer that preceded the piecewise one).  Any change to the scalar kernel, the recoupling symbols
or the certificate layout that alters a single byte fails here.
"""

import hashlib

import pytest

from skeinrep.certificates import certify_irreducible, to_canonical_json
from skeinrep.density import certify_density
from skeinrep.recoupling import fusion_matrix, tet
from skeinrep.scalars import GENERIC, root_of_unity
from skeinrep.twists import pure_braid_twist

PINNED = [
    ("certify 7,0,5", lambda: certify_irreducible(7, 0, 5, (1, 1, 1, 1, 2)), "a7ac5396f040"),
    ("certify 5,1,2", lambda: certify_irreducible(5, 1, 2, (1, 1)), "43c07afeef50"),
    ("certify 7,2,1", lambda: certify_irreducible(7, 2, 1, (2,)), "200a5f70a9f1"),
    # 1,313 emitted nodes for 119 distinct ones: pins the piecewise writer
    ("certify 7,3,0", lambda: certify_irreducible(7, 3, 0, ()), "716540fbc0d0"),
    ("fusion 4444 p11", lambda: fusion_matrix(4, 4, 4, 4, root_of_unity(11)), "760c1a295485"),
    ("fusion 5656 p13", lambda: fusion_matrix(5, 6, 5, 6, root_of_unity(13)), "6a0d9702f3fc"),
    ("twist p7", lambda: pure_braid_twist(5, (2, 4), (1, 2, 2, 2, 3), root_of_unity(7)),
     "833f8a0a0e0c"),
]

GENERIC_PINNED = [
    ("fusion 6666", lambda: fusion_matrix(6, 6, 6, 6, GENERIC), "38004ad6c193"),
    ("twist", lambda: pure_braid_twist(5, (2, 4), (1, 2, 2, 2, 3), GENERIC), "72761dad2c07"),
    ("tet 332332", lambda: tet(3, 3, 2, 3, 3, 2, GENERIC), "f311e3425ac4"),
    ("certify dense", lambda: certify_density((1, 2, 2, 3, 3, 3)), "3f126ee2a25a"),
]


@pytest.mark.parametrize("build, prefix", [(b, h) for _, b, h in PINNED],
                         ids=[name for name, _, _ in PINNED])
def test_root_of_unity_output_bytes(build, prefix):
    assert _digest(build()) == prefix


@pytest.mark.parametrize("build, prefix", [(b, h) for _, b, h in GENERIC_PINNED],
                         ids=[name for name, _, _ in GENERIC_PINNED])
def test_generic_output_bytes(build, prefix):
    assert _digest(build()) == prefix


def _digest(value) -> str:
    blob = to_canonical_json(value.to_json()).encode()
    return hashlib.sha256(blob).hexdigest()[:12]

"""Root-of-unity outputs pinned byte for byte.

Each entry is the first 12 hex digits of the SHA-256 of the output's
canonical JSON, recorded with the Fraction-vector kernel that preceded the
integer-scaled one.  Any change to the scalar kernel, the recoupling symbols
or the certificate layout that alters a single byte fails here.
"""

import hashlib

import pytest

from skeinrep.certificates import certify_irreducible, to_canonical_json
from skeinrep.recoupling import fusion_matrix
from skeinrep.scalars import root_of_unity
from skeinrep.twists import pure_braid_twist

PINNED = [
    ("certify 7,0,5", lambda: certify_irreducible(7, 0, 5, (1, 1, 1, 1, 2)), "a7ac5396f040"),
    ("certify 5,1,2", lambda: certify_irreducible(5, 1, 2, (1, 1)), "43c07afeef50"),
    ("certify 7,2,1", lambda: certify_irreducible(7, 2, 1, (2,)), "200a5f70a9f1"),
    ("fusion 4444 p11", lambda: fusion_matrix(4, 4, 4, 4, root_of_unity(11)), "760c1a295485"),
    ("fusion 5656 p13", lambda: fusion_matrix(5, 6, 5, 6, root_of_unity(13)), "6a0d9702f3fc"),
    ("twist p7", lambda: pure_braid_twist(5, (2, 4), (1, 2, 2, 2, 3), root_of_unity(7)),
     "833f8a0a0e0c"),
]


@pytest.mark.parametrize("build, prefix", [(b, h) for _, b, h in PINNED],
                         ids=[name for name, _, _ in PINNED])
def test_root_of_unity_output_bytes(build, prefix):
    blob = to_canonical_json(build().to_json()).encode()
    assert hashlib.sha256(blob).hexdigest()[:12] == prefix

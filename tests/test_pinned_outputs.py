"""Root-of-unity and generic outputs pinned byte for byte.

Each entry is the first 12 hex digits of the SHA-256 of the output's
canonical JSON.  A certificate is hashed as its expanded
``skeinrep.certificate/1`` tree, so these pins hold across the ``/2`` node
tables, whose bytes two more pins fix as written.  The pins were recorded
with the Fraction kernels that preceded the integer-scaled ones (the
genus-3 certificate with the plain ``json.dumps`` writer that preceded the
piecewise one).  The (5,4,0), (11,2,0) and (13,1,2) certificates and the
CLI replay output were recorded with the writer keyed by compact dumps and
the replay that walked every occurrence, before either was keyed by
`_node_key`.  The (1,2,2,2,2,3) density certificate and the five
trivial-status certificates were recorded with the separate irreducibility
and density drivers that preceded the one memoized recursion.  Any change
to the scalar kernel, the recoupling symbols, the certificate layout or the
replay messages that alters a single byte fails here."""

import hashlib
import json

import pytest
from certtables import expand, tree_nodes

from skeinrep.cli import main
from skeinrep.certificates import Certificate, certify_irreducible, to_canonical_json
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
    # 2,161 emitted nodes for 50 distinct ones
    ("certify 5,4,0", lambda: certify_irreducible(5, 4, 0, ()), "4030ad11f5f3"),
    ("certify 11,2,0", lambda: certify_irreducible(11, 2, 0, ()), "da307e6e9285"),
    ("certify 13,1,2", lambda: certify_irreducible(13, 1, 2, (2, 2)), "cc6aefec913c"),
    # trivial statuses: dimension 0 (NOT_APPLICABLE) and dimension 1 (VACUOUS)
    ("certify 5,1,1", lambda: certify_irreducible(5, 1, 1, (3,)), "fcb9d0f9abfa"),
    ("certify 5,0,3", lambda: certify_irreducible(5, 0, 3, (1, 1, 2)), "8660c800bec3"),
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
    # the (3,2,2,2,3) step asks for (2,2,3,3) and gets the node built as (3,2,2,3)
    ("certify dense 122223", lambda: certify_density((1, 2, 2, 2, 2, 3)), "3adb46945197"),
    # trivial statuses: fewer than four punctures, dimension 0, dimension 1
    ("certify dense 111", lambda: certify_density((1, 1, 1)), "0b437e10934e"),
    ("certify dense 1112", lambda: certify_density((1, 1, 1, 2)), "e424fed45b83"),
    ("certify dense 00000", lambda: certify_density((0, 0, 0, 0, 0)), "1650ede36158"),
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
    doc = value.to_json()
    if isinstance(value, Certificate):
        doc = expand(doc)
    return _sha(to_canonical_json(doc))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# the skeinrep.certificate/2 node tables, as written
TABLE_PINNED = [
    ("certify 7,3,0", lambda: certify_irreducible(7, 3, 0, ()), "d0b32309e216"),
    ("certify dense", lambda: certify_density((1, 2, 2, 3, 3, 3)), "4ceb92d1f601"),
]


@pytest.mark.parametrize("build, prefix", [(b, h) for _, b, h in TABLE_PINNED],
                         ids=[name for name, _, _ in TABLE_PINNED])
def test_certificate_table_bytes(build, prefix):
    assert _sha(to_canonical_json(build().to_json())) == prefix


def _bump_dimensions(nodes) -> int:
    bumped = 0
    for node in nodes:
        for check in node["checks"]:
            if check["witness"]["kind"] == "dimension":
                check["witness"]["value"] += 1
                bumped += 1
    return bumped


def test_cli_replay_output_bytes(tmp_path, capsys):
    # every dimension witness of (7, 3, 0) overstated by one: 246 leaves in
    # repeated subtrees, each reported at its own path, in document order;
    # in the table each distinct witness is bumped once, with the same report
    cert, replay = tmp_path / "cert.json", tmp_path / "replay.json"
    argv = ["certify", "irr", "--p", "7", "--g", "3", "--b", "0", "--json", "--out"]
    assert main(argv + [str(cert)]) == 0
    table = json.loads(cert.read_text())
    tree = expand(table)
    assert _bump_dimensions(tree_nodes(tree)) == 246
    assert 0 < _bump_dimensions(table["nodes"].values()) < 246
    for doc in (tree, table):
        cert.write_text(json.dumps(doc))
        assert main(["replay", "--file", str(cert), "--json", "--out", str(replay)]) == 1
        capsys.readouterr()
        assert hashlib.sha256(replay.read_bytes()).hexdigest()[:12] == "bdd2fbe44373"

"""End-to-end acceptance battery.

Each test states one verifiable claim about the engine and pins a wall-clock
budget.  Budgets are generous; the point is to catch accidental blowups in
the exact arithmetic, not to benchmark.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time

import skeinrep
from skeinrep.certificates import (
    CERTIFIED,
    CERTIFIED_MODULO_ASSUMPTION,
    NOT_APPLICABLE,
    VACUOUS,
    build_decomposition_graph,
    certify_four_punctures,
    certify_irreducible,
    certify_one_holed_torus,
    connectivity,
    induction_step_graph,
    multiplicity_free_check,
    replay_certificate,
    to_canonical_json,
)
from skeinrep.density import certify_density, weight_scalar_analysis
from skeinrep.matrices import RingMatrix
from skeinrep.recoupling import fusion_matrix, middle_colors, tet, theta
from skeinrep.scalars import (
    GENERIC,
    a_power,
    quantum_factorial,
    quantum_integer,
    root_of_unity,
)
from skeinrep.spaces import dimension, enumerate_colorings, standard_graph
from skeinrep.tl import evaluate_network, tet_network, theta_network
from skeinrep.twists import twist_eigenvalue


def _budget(t0: float, seconds: float, label: str):
    elapsed = time.time() - t0
    assert elapsed < seconds, f"{label}: {elapsed:.1f}s exceeded the {seconds:.0f}s budget"


def test_01_quantum_integers_at_roots_of_unity():
    t0 = time.time()
    for p in (5, 7, 11):
        ring = root_of_unity(p)
        assert quantum_integer(ring, p).is_zero()
        for n in range(p):
            assert not quantum_factorial(ring, n).is_zero(), (p, n)
    _budget(t0, 1, "quantum integer checks")


def test_02_recoupling_scalars_match_network_oracle():
    t0 = time.time()
    rings = (GENERIC, root_of_unity(5), root_of_unity(7))
    for ring in rings:
        n_theta = 0
        for triple in itertools.product(range(4), repeat=3):
            try:
                closed = theta(*triple, ring)
            except ValueError:
                continue
            assert closed == evaluate_network(theta_network(*triple), ring, max_strands=24)
            n_theta += 1
        assert n_theta > 10
        n_tet = 0
        for frame in itertools.product(range(4), repeat=6):
            try:
                closed = tet(*frame, ring)
            except ValueError:
                continue
            assert closed == evaluate_network(tet_network(*frame), ring, max_strands=24), frame
            n_tet += 1
        assert n_tet > 100
    _budget(t0, 300, "recoupling oracle sweep")


def test_03_fusion_matrix_reverse_round_trip():
    t0 = time.time()
    for ring in (GENERIC, root_of_unity(7)):
        n_checked = 0
        for a, b, c, d in itertools.product(range(5), repeat=4):
            if not middle_colors(a, b, c, d, ring):
                continue
            F = fusion_matrix(a, b, c, d, ring)
            G = fusion_matrix(a, d, c, b, ring)
            assert (G * F).is_identity(), (a, b, c, d)
            assert (F * G).is_identity(), (a, b, c, d)
            n_checked += 1
        assert n_checked > 200
    _budget(t0, 120, "fusion round trips")


def test_04_dimension_cross_checks():
    t0 = time.time()
    assert dimension(0, 4, (1, 1, 3, 3), root_of_unity(5)) == 1
    assert dimension(0, 4, (1, 1, 3, 3), root_of_unity(7)) == 2
    for p in (5, 7, 11):
        ring = root_of_unity(p)
        for a in range((p - 1) // 2):
            assert dimension(1, 1, (2 * a,), ring) == p - 1 - a, (p, a)
    # transfer-matrix count against explicit enumeration
    shapes = ((0, 3), (0, 4), (1, 1), (1, 2), (1, 3), (1, 4),
              (2, 0), (2, 1), (2, 2), (2, 3), (2, 4))
    for p in (5, 7):
        ring = root_of_unity(p)
        for g, b in shapes:
            graph = standard_graph(g, b)
            for colors in itertools.product(range(5), repeat=b):
                count = len(enumerate_colorings(graph, colors, ring))
                assert count == dimension(g, b, colors, ring), (p, g, b, colors)
        # the closed torus has no trivalent graph; its count is the color range
        assert dimension(1, 0, (), ring) == p - 1
    _budget(t0, 120, "dimension cross-checks")


def test_05_four_puncture_irreducibility_exhaustive():
    t0 = time.time()
    n_certified = 0
    for p in (5, 7):
        ring = root_of_unity(p)
        for colors in itertools.product(range(p - 1), repeat=4):
            if dimension(0, 4, colors, ring) < 2:
                continue
            cert = certify_four_punctures(colors, ring)
            assert cert.status == CERTIFIED, (p, colors, cert.status)
            n_certified += 1
    assert n_certified > 100
    _budget(t0, 300, "four-puncture sweep")


def test_06_torus_twist_spectrum_distinct():
    t0 = time.time()
    for p in (5, 7, 11):
        ring = root_of_unity(p)
        for a in range(1, (p - 3) // 2 + 1):
            values = [twist_eigenvalue(ring, a + j) for j in range(p - a - 1)]
            ok, _ = multiplicity_free_check(values)
            assert ok, (p, a)
            cert = certify_one_holed_torus(p, a)
            names = {c.name: c.status for c in cert.checks}
            assert names["twist-eigenvalues-distinct"] == "PASSED"
    _budget(t0, 30, "torus spectra")


def test_07_induction_steps_and_small_trees():
    t0 = time.time()
    for p in (5, 7):
        top = min(4, p - 2)
        for a, b in itertools.product(range(top + 1), repeat=2):
            _, cert = induction_step_graph("two_boundary", p, 1, (a, b))
            assert cert.status in (CERTIFIED, VACUOUS), (p, a, b, cert.status)
        for colors in itertools.product(range(top + 1), repeat=5):
            # a distinguished circle colored 0 or p-2 degenerates and is
            # handled by the driver's reductions instead of a split step
            if colors[-1] in (0, p - 2):
                continue
            _, cert = induction_step_graph("split", p, 0, colors)
            assert cert.status in (CERTIFIED, VACUOUS), (p, colors, cert.status)
    for g, b in ((1, 2), (0, 5), (2, 0)):
        for colors in itertools.product(range(3), repeat=b):
            cert = certify_irreducible(5, g, b, colors)
            assert cert.status in (
                CERTIFIED,
                CERTIFIED_MODULO_ASSUMPTION,
                VACUOUS,
                NOT_APPLICABLE,
            ), (g, b, colors, cert.status)
            if cert.status in (CERTIFIED, CERTIFIED_MODULO_ASSUMPTION):
                status, problems = replay_certificate(cert.to_json())
                assert not problems, (g, b, colors)
    _budget(t0, 300, "induction steps and trees")


def test_08_density_certificates():
    t0 = time.time()
    n_certified = 0
    for colors in itertools.product(range(5), repeat=4):
        if dimension(0, 4, colors, GENERIC) < 2:
            continue
        cert = certify_density(colors)
        assert cert.status == CERTIFIED, (colors, cert.status)
        names = [c.name for c in cert.checks]
        for want in ("tet-nonvanishing", "twist-ratio-infinite-order",
                     "twist-weights-force-full-group"):
            assert want in names, (colors, names)
        n_certified += 1
    assert n_certified > 50
    cert = certify_density((1, 1, 1, 1, 2))
    assert cert.status == CERTIFIED
    assert not replay_certificate(cert.to_json())[1]
    _budget(t0, 600, "density sweep")


def test_09_projective_invariance():
    t0 = time.time()
    rng = random.Random(60902)
    ring = root_of_unity(7)

    def unit():
        u = a_power(ring, rng.randint(-13, 13))
        return -u if rng.random() < 0.5 else u

    frames = [
        (a, b, c, d)
        for a, b, c, d in itertools.product(range(5), repeat=4)
        if len(middle_colors(a, b, c, d, ring)) >= 2
    ]
    for trial in range(100):
        kind = trial % 3
        if kind == 0:
            # twist spectra keep their verdict under a common unit
            colors = rng.choice(frames)
            values = [twist_eigenvalue(ring, i) for i in middle_colors(*colors, ring)]
            ok_before, _ = multiplicity_free_check(values)
            u = unit()
            ok_after, _ = multiplicity_free_check([u * v for v in values])
            assert ok_before == ok_after
        elif kind == 1:
            # basis rescaling: conjugating F by unit diagonals preserves the
            # zero pattern, hence the decomposition graph and its verdict
            colors = rng.choice(frames)
            F = fusion_matrix(*colors, ring)
            D1 = RingMatrix.diagonal(ring, [unit() for _ in range(F.n_rows)],
                                     labels=F.row_labels)
            D2 = RingMatrix.diagonal(ring, [unit() for _ in range(F.n_cols)],
                                     labels=F.col_labels)
            G = D1 * F * D2
            g1 = build_decomposition_graph(F, F.inverse())
            g2 = build_decomposition_graph(G, G.inverse())
            assert [(s, t) for s, t, _ in g1.edges] == [(s, t) for s, t, _ in g2.edges]
            assert connectivity(g1, "undirected")[0] == connectivity(g2, "undirected")[0]
        else:
            # weight analysis is stable under a common exponent shift
            base = sorted(rng.sample(range(0, 60), rng.randint(2, 5)))
            shift = rng.randint(-40, 40)
            v1 = weight_scalar_analysis(tuple(base))["verdict"]
            v2 = weight_scalar_analysis(tuple(x + shift for x in base))["verdict"]
            assert v1 == v2
    _budget(t0, 60, "projective invariance trials")


def test_10_artifacts_are_deterministic():
    t0 = time.time()
    docs = [
        certify_irreducible(5, 0, 5, (1, 1, 1, 1, 2)).to_json(),
        certify_irreducible(5, 1, 2, (1, 1)).to_json(),
        certify_density((1, 1, 1, 1)).to_json(),
    ]
    again = [
        certify_irreducible(5, 0, 5, (1, 1, 1, 1, 2)).to_json(),
        certify_irreducible(5, 1, 2, (1, 1)).to_json(),
        certify_density((1, 1, 1, 1)).to_json(),
    ]
    for d1, d2 in zip(docs, again):
        assert to_canonical_json(d1) == to_canonical_json(d2)
    # a fresh interpreter produces the same bytes; it imports the package
    # this test imported, whether or not that package is installed
    package_dir = os.path.dirname(os.path.dirname(os.path.abspath(skeinrep.__file__)))
    path = [package_dir] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    cmd = [sys.executable, "-c",
           "from skeinrep.cli import main; main(['certify', 'irr', '--p', '5', "
           "'--g', '0', '--b', '4', '--colors', '1,1,1,1', '--json'])"]
    runs = [subprocess.run(cmd, capture_output=True, check=True, env=env).stdout
            for _ in range(2)]
    assert runs[0] == runs[1] and runs[0]
    _budget(t0, 60, "determinism")

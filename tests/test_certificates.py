"""Irreducibility certificates: builders, aggregation, replay soundness."""

import copy
import gc
import json
import random
import weakref

import pytest
from certtables import expand, tree_nodes

from skeinrep.certificates import (
    CERTIFIED,
    CERTIFIED_MODULO_ASSUMPTION,
    DEFAULT_MAX_DEPTH,
    FAILED,
    NOT_APPLICABLE,
    SCHEMA,
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
from skeinrep.density import certify_density
from skeinrep.matrices import RingMatrix
from skeinrep.recoupling import fusion_matrix
from skeinrep.scalars import GENERIC, Scalar, a_power, root_of_unity, scalar_from_json

R5 = root_of_unity(5)
R7 = root_of_unity(7)


def test_multiplicity_free_check():
    vals = [a_power(GENERIC, k) for k in (0, 2, 6)]
    ok, wit = multiplicity_free_check(vals)
    assert ok and wit["duplicate"] is None
    ok, wit = multiplicity_free_check(vals + [a_power(GENERIC, 2)])
    assert not ok and wit["duplicate"] == [1, 3]
    # the first pair in (i, j) order, not the first repeat met in a scan
    x, y = vals[:2]
    ok, wit = multiplicity_free_check([x, y, y, x])
    assert not ok and wit["duplicate"] == [0, 3]
    with pytest.raises(ValueError):
        multiplicity_free_check([Scalar.zero(GENERIC)])


def test_multiplicity_free_check_unit_invariant():
    # ratios ignore a common unit, the freedom a projective action has
    rng = random.Random(8)
    vals = [a_power(GENERIC, k) + Scalar.one(GENERIC) for k in (2, 4, 8)]
    for _ in range(5):
        u = -a_power(GENERIC, rng.randint(-9, 9))
        ok, _ = multiplicity_free_check([u * v for v in vals])
        assert ok


def test_decomposition_graph_connectivity():
    F = fusion_matrix(1, 1, 1, 1, GENERIC)
    graph = build_decomposition_graph(F, fusion_matrix(1, 1, 1, 1, GENERIC))
    assert set(graph.left) == {"L:0", "L:2"} and set(graph.right) == {"R:0", "R:2"}
    # every entry of this F is nonzero, so the graph is complete bipartite
    assert len(graph.edges) == 2 * F.n_rows * F.n_cols
    ok, comps = connectivity(graph, "undirected")
    assert ok and len(comps) == 1
    ok, comps = connectivity(graph, "strong")
    assert ok

    # graphs that are not strongly connected, with the partitions a Kosaraju
    # sweep gave for them
    from skeinrep.certificates import DecompositionGraph

    cases = (
        (3, 2, "L0R0 L0R1 L1R1 R0L0 R1L0 R0L1 R1L1 R1L2",
         [["L:0", "L:1", "R:0", "R:1"], ["L:2"]]),
        (2, 3, "L1R1 L1R2 R0L0 R2L0 R0L1 R1L1 R2L1",
         [["L:0"], ["L:1", "R:1", "R:2"], ["R:0"]]),
        (3, 2, "L0R0 L2R1 R0L0 R1L0 R1L2",
         [["L:0", "R:0"], ["L:1"], ["L:2", "R:1"]]),
        (2, 3, "L0R1 L0R2 L1R0 L1R1 L1R2 R0L0 R2L0 R0L1",
         [["L:0", "R:2"], ["L:1", "R:0"], ["R:1"]]),
    )
    for n_left, n_right, spec, partition in cases:
        edges = tuple((f"{e[0]}:{e[1]}", f"{e[2]}:{e[3]}", {}) for e in spec.split())
        graph = DecompositionGraph(tuple(f"L:{i}" for i in range(n_left)),
                                   tuple(f"R:{i}" for i in range(n_right)), edges)
        assert connectivity(graph, "strong") == (False, partition)


def test_decomposition_graph_rejects_bad_shapes():
    F = fusion_matrix(2, 1, 1, 2, GENERIC)
    Finv = fusion_matrix(2, 2, 1, 1, GENERIC)
    wide = RingMatrix(GENERIC, [F.rows[0] + F.rows[0]])
    with pytest.raises(ValueError):
        build_decomposition_graph(wide, RingMatrix(GENERIC, [[x] for x in wide.rows[0]]))
    with pytest.raises(ValueError):
        build_decomposition_graph(F, RingMatrix(GENERIC, Finv.rows[:1]))


def test_connectivity_detects_split():
    from skeinrep.certificates import DecompositionGraph

    graph = DecompositionGraph(
        left=("L:0", "L:2"),
        right=("R:0", "R:2"),
        edges=(("L:0", "R:0", {}), ("R:0", "L:0", {})),
    )
    ok, comps = connectivity(graph, "undirected")
    assert not ok and len(comps) == 3
    with pytest.raises(ValueError):
        connectivity(DecompositionGraph((), (), ()), "undirected")
    with pytest.raises(ValueError):
        connectivity(graph, "weak")


def test_four_punctures_certificate():
    cert = certify_four_punctures((1, 1, 1, 1), R5)
    assert cert.status == CERTIFIED
    names = [c.name for c in cert.checks]
    assert "decomposition-graph-connected:undirected" in names
    table = cert.to_json()
    assert table["schema"] == SCHEMA
    doc = expand(table)
    assert doc["instance"]["p"] == 5 and doc["instance"]["colors"] == [1, 1, 1, 1]
    # generic mode demands strong connectivity
    gen = certify_four_punctures((1, 1, 1, 1), GENERIC)
    assert gen.status == CERTIFIED
    assert "decomposition-graph-connected:strong" in [c.name for c in gen.checks]


def test_four_punctures_degenerate_dimensions():
    assert certify_four_punctures((1, 1, 3, 3), R5).status == VACUOUS  # dim 1
    assert certify_four_punctures((1, 1, 1, 2), R5).status == NOT_APPLICABLE  # dim 0


def test_one_holed_torus_certificate():
    cert = certify_one_holed_torus(7, 1)
    assert cert.status == CERTIFIED_MODULO_ASSUMPTION
    assert cert.assumptions
    names = [c.name for c in cert.checks]
    assert "twist-eigenvalues-distinct" in names
    status, problems = replay_certificate(cert.to_json())
    assert status == CERTIFIED_MODULO_ASSUMPTION and not problems
    with pytest.raises(ValueError):
        certify_one_holed_torus(7, 9)


def test_induction_steps():
    graph, cert = induction_step_graph("two_boundary", 5, 1, (1, 1))
    assert cert.status == CERTIFIED
    assert graph.left and graph.right
    graph, cert = induction_step_graph("closed", 5, 2)
    assert cert.status == CERTIFIED
    graph, cert = induction_step_graph("split", 7, 0, (1, 1, 1, 1, 2))
    assert cert.status == CERTIFIED
    for bad in (
        ("two_boundary", 5, 0, (1, 1)),
        ("closed", 5, 1, ()),
        ("split", 5, 0, ()),
        ("sideways", 5, 0, (1, 1)),
    ):
        with pytest.raises(ValueError):
            induction_step_graph(*bad)


def test_certify_irreducible_trees():
    cert = certify_irreducible(5, 0, 5, (1, 1, 1, 1, 2))
    assert cert.status == CERTIFIED
    assert cert.children  # split into smaller instances
    status, problems = replay_certificate(cert.to_json())
    assert status == CERTIFIED and not problems

    # genus: the torus leaves are cited, which caps the tree at modulo-assumption
    cert = certify_irreducible(5, 1, 2, (1, 1))
    assert cert.status == CERTIFIED_MODULO_ASSUMPTION
    status, problems = replay_certificate(cert.to_json())
    assert status == CERTIFIED_MODULO_ASSUMPTION and not problems

    cert = certify_irreducible(5, 2, 0, ())
    assert cert.status == CERTIFIED_MODULO_ASSUMPTION
    assert not replay_certificate(cert.to_json())[1]


def test_certify_irreducible_degenerate():
    assert certify_irreducible(5, 0, 4, (1, 1, 3, 3)).status == VACUOUS
    assert certify_irreducible(5, 0, 4, (1, 1, 1, 2)).status == NOT_APPLICABLE
    with pytest.raises(ValueError):
        certify_irreducible(5, 0, 4, (1, 1, 1))
    with pytest.raises(ValueError):
        certify_irreducible(5, 0, 4, (1, 1, 1, 9))
    with pytest.raises(ValueError):
        certify_irreducible(4, 0, 4, (1, 1, 1, 1))


def test_certify_irreducible_zero_and_max_colors():
    # zero colors are erased before the induction; p-2 colors are merged away
    cert = certify_irreducible(5, 0, 5, (1, 1, 1, 1, 0))
    assert cert.status in (CERTIFIED, CERTIFIED_MODULO_ASSUMPTION)
    assert not replay_certificate(cert.to_json())[1]
    cert = certify_irreducible(5, 0, 4, (3, 1, 1, 1))
    assert cert.status in (CERTIFIED, CERTIFIED_MODULO_ASSUMPTION, VACUOUS)
    assert not replay_certificate(cert.to_json())[1]


@pytest.mark.parametrize("build, least", [
    (lambda d: certify_irreducible(7, 3, 0, (), max_depth=d), 6),
    (lambda d: certify_irreducible(5, 4, 0, (), max_depth=d), 9),
    (lambda d: certify_irreducible(7, 0, 5, (1, 1, 1, 1, 2), max_depth=d), 1),
    (lambda d: certify_density((1, 2, 2, 3, 3, 3), max_depth=d), 2),
], ids=["7,3,0", "5,4,0", "7,0,5", "dense 122333"])
def test_max_depth_bounds_the_induction(build, least):
    # the root is at depth 0; `least` is the deepest first visit of any node
    assert build(least) == build(DEFAULT_MAX_DEPTH)
    with pytest.raises(ValueError, match=f"^induction depth exceeds max_depth={least - 1}$"):
        build(least - 1)


def test_finished_trees_are_freed_without_the_cyclic_collector():
    # a memo held by a closure that calls itself sits in a reference cycle
    # and keeps every node of a finished tree alive until gc runs
    enabled = gc.isenabled()
    gc.disable()
    try:
        for build in (lambda: certify_irreducible(7, 3, 0, ()),
                      lambda: certify_density((1, 2, 2, 3, 3, 3))):
            root = build()
            child = weakref.ref(root.children[-1])
            del root
            assert child() is None
    finally:
        if enabled:
            gc.enable()


def test_replay_rejects_tampering():
    cert = certify_irreducible(5, 0, 5, (1, 1, 1, 1, 2))
    doc = expand(cert.to_json())

    # claim a different status
    bad = copy.deepcopy(doc)
    bad["status"] = FAILED
    status, problems = replay_certificate(bad)
    assert problems

    # lie about a dimension inside a genus tree
    genus_doc = expand(certify_irreducible(5, 1, 2, (1, 1)).to_json())
    bad_genus = copy.deepcopy(genus_doc)

    def bump_dimension(node):
        for check in node.get("checks", ()):
            wit = check.get("witness", {})
            if isinstance(wit, dict) and wit.get("kind") == "dimension":
                wit["value"] += 1
                wit["expected"] += 1
                return True
        return any(bump_dimension(ch) for ch in node.get("children", ()))

    assert bump_dimension(bad_genus)
    status, problems = replay_certificate(bad_genus)
    assert status == FAILED
    assert "cert/0/0/dimension-count: dimension of [] is 4, stored value 5, expected 5" \
        in problems

    # zero out a scalar that the certificate claims is nonzero
    bad = copy.deepcopy(doc)

    def kill_scalar(node):
        for check in node.get("checks", ()):
            wit = check.get("witness", {})
            if isinstance(wit, dict) and wit.get("kind") == "nonzero_scalars":
                blob = wit["entries"][0]["scalar"]
                coeffs = blob["coefficients"]
                if isinstance(coeffs, dict):
                    blob["coefficients"] = {}
                else:
                    blob["coefficients"] = ["0"] * len(coeffs)
                return True
        return any(kill_scalar(ch) for ch in node.get("children", ()))

    assert kill_scalar(bad)
    status, problems = replay_certificate(bad)
    assert status == FAILED
    assert any(m.endswith("lowest-channel-column-nonzero: entry 0 scalar is zero")
               for m in problems), problems

    # the failing entry is named for every per-entry witness kind
    def tamper(kind, edit):
        bad = copy.deepcopy(genus_doc if kind in ("admissible_triples", "reduction")
                            else doc)
        wit = _first_witness(bad, kind)
        edit(wit)
        status, problems = replay_certificate(bad)
        assert status == FAILED
        return problems

    def forge_triple(wit):
        wit["triples"][0].update(triple=[1, 2, 2], admissible=True)

    problems = tamper("admissible_triples", forge_triple)
    assert any("hub-meets-every-summand: triple [1, 2, 2] inadmissible" in m
               for m in problems), problems

    def unlink_pair(wit):
        wit["pairs"][0]["via"] = None

    problems = tamper("chain", unlink_pair)
    assert any(": pair [0, 2] has no shared neighbor" in m for m in problems), problems

    def bump_reduction(wit):
        wit["dims"][0] += 1

    problems = tamper("reduction", bump_reduction)
    assert "cert/0/zero-color-erasure-preserves-dimension: dimensions 4 of [0] and " \
        "4 of [], stored 5" in problems


def _first_witness(node, kind):
    """The first witness of `kind` in preorder."""
    for check in node["checks"]:
        if check["witness"].get("kind") == kind:
            return check["witness"]
    for child in node["children"]:
        wit = _first_witness(child, kind)
        if wit is not None:
            return wit
    return None


def test_replay_binds_values_to_channels():
    doc = expand(certify_irreducible(7, 0, 5, (1, 1, 1, 1, 2)).to_json())
    wit = _first_witness(doc, "distinct_values")
    assert len(wit["channels"]) >= 2
    assert replay_certificate(doc) == (doc["status"], [])

    # swapped channels: each value is some channel's eigenvalue, at the wrong place
    bad = copy.deepcopy(doc)
    channels = _first_witness(bad, "distinct_values")["channels"]
    channels[0], channels[1] = channels[1], channels[0]
    status, problems = replay_certificate(bad)
    assert status == FAILED
    assert any("stored value 0 is not the twist eigenvalue of channel" in m
               for m in problems), problems

    # one value moved to another unit that keeps the list distinct
    bad = copy.deepcopy(doc)
    values = _first_witness(bad, "distinct_values")["values"]
    shifted = scalar_from_json(values[-1]) * a_power(R7, 2)
    assert shifted not in [scalar_from_json(v) for v in values]
    values[-1] = shifted.to_json()
    status, problems = replay_certificate(bad)
    assert status == FAILED
    assert any(f"stored value {len(values) - 1} is not the twist eigenvalue" in m
               for m in problems), problems

    # a channel outside the ring's colors is a problem, not an exception
    bad = copy.deepcopy(doc)
    _first_witness(bad, "distinct_values")["channels"][0] = 9
    status, problems = replay_certificate(bad)
    assert status == FAILED
    assert any("channel 0: color 9 out of range" in m for m in problems), problems

    # the one-holed torus stores exponents, not channels
    torus = expand(certify_one_holed_torus(7, 1).to_json())
    assert "channels" not in _first_witness(torus, "distinct_values")
    assert replay_certificate(torus) == (torus["status"], [])

    # value k must be (-1)^k A^e for its exponent e: move the last value to
    # another unit that keeps the list distinct
    bad = copy.deepcopy(torus)
    values = _first_witness(bad, "distinct_values")["values"]
    shifted = scalar_from_json(values[-1]) * a_power(R7, 2)
    assert shifted not in [scalar_from_json(v) for v in values]
    values[-1] = shifted.to_json()
    status, problems = replay_certificate(bad)
    assert status == FAILED
    assert any(f"stored value {len(values) - 1} is not (-1)^k A^e for exponent" in m
               for m in problems), problems

    # an exponent that no longer gives its stored value
    bad = copy.deepcopy(torus)
    _first_witness(bad, "distinct_values")["exponents"][0] = 999
    status, problems = replay_certificate(bad)
    assert status == FAILED
    assert any("stored value 0 is not (-1)^k A^e for exponent 999" in m
               for m in problems), problems

    # one exponent dropped
    bad = copy.deepcopy(torus)
    _first_witness(bad, "distinct_values")["exponents"].pop()
    status, problems = replay_certificate(bad)
    assert status == FAILED
    assert any(f"{len(values) - 1} exponents for {len(values)} values" in m
               for m in problems), problems


def test_replay_rederives_trivial_statuses():
    # a 2-dimensional child relabelled VACUOUS, with its proof stripped
    doc = expand(certify_irreducible(7, 0, 5, (1, 1, 1, 1, 2)).to_json())
    child = doc["children"][3]
    assert child["instance"]["colors"] == [1, 1, 2, 2] and child["status"] == CERTIFIED
    child.update(status=VACUOUS, checks=[], children=[])
    status, problems = replay_certificate(doc)
    assert status == FAILED
    assert any(msg.startswith("cert/3: stored status VACUOUS") for msg in problems)

    # a dimension-1 leaf relabelled NOT_APPLICABLE
    doc = expand(certify_irreducible(7, 0, 5, (1, 1, 1, 1, 2)).to_json())
    assert doc["children"][0]["status"] == VACUOUS
    doc["children"][0]["status"] = NOT_APPLICABLE
    assert replay_certificate(doc)[0] == FAILED

    # zariski-dense: fewer than four punctures, dimension 1, dimension >= 2
    for colors, honest in (((1, 1, 2), NOT_APPLICABLE), ((1, 1, 1, 3), VACUOUS),
                           ((1, 1, 1, 1), CERTIFIED)):
        doc = expand(certify_density(colors).to_json())
        assert doc["status"] == honest
        assert replay_certificate(doc) == (honest, [])
        for forged in {VACUOUS, NOT_APPLICABLE} - {honest}:
            doc["status"] = forged
            assert replay_certificate(doc)[0] == FAILED, (colors, forged)


def test_replay_rejects_unknown_schema():
    cert = certify_four_punctures((1, 1, 1, 1), R5)
    doc = cert.to_json()
    doc["schema"] = "something/else"
    status, problems = replay_certificate(doc)
    assert problems


def test_canonical_json_deterministic():
    cert = certify_irreducible(7, 0, 4, (1, 1, 3, 3))
    s1 = to_canonical_json(cert.to_json())
    s2 = to_canonical_json(certify_irreducible(7, 0, 4, (1, 1, 3, 3)).to_json())
    assert s1 == s2
    assert s1.endswith("\n")
    json.loads(s1)  # well-formed


def _indented(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_canonical_json_is_indented_dumps():
    docs = [expand(certify_irreducible(7, 3, 0, ()).to_json()),
            expand(certify_irreducible(7, 0, 5, (1, 1, 1, 1, 2)).to_json()),
            expand(certify_density((1, 2, 2, 3, 3, 3)).to_json())]
    for doc in docs:
        assert to_canonical_json(doc) == _indented(doc)

    # one occurrence of a shared subtree edited, the others left alone
    doc = docs[0]
    seen = {}

    def find_repeat(node):
        for child in node["children"]:
            key = json.dumps(child, sort_keys=True)
            if key in seen:
                return child
            seen[key] = child
            repeat = find_repeat(child)
            if repeat is not None:
                return repeat
        return None

    repeat = find_repeat(doc)
    assert repeat is not None
    before = to_canonical_json(doc)
    repeat["detail"] += " (edited)"
    repeat["checks"][0]["witness"]["edited"] = [1, {"deep": True}]
    after = to_canonical_json(doc)
    assert after == _indented(doc) and after != before
    assert after.count("(edited)") == 1

    # a leaf with no children, and a node whose fields hold nested containers
    leaf = {"name": "leaf", "children": []}
    assert to_canonical_json(leaf) == _indented(leaf)
    nested = {"b": [1, [], {}], "a": {"x": None}, "children": [leaf, dict(leaf), {
        "children": [leaf], "z": 1.5}]}
    assert to_canonical_json(nested) == _indented(nested)

    # a payload that is not a certificate tree
    payload = {"verb": "fmatrix", "matrix": fusion_matrix(2, 2, 2, 2, R5).to_json()}
    assert to_canonical_json(payload) == _indented(payload)
    # an OrderedDict field has no marshal key
    from collections import OrderedDict

    for odd in ([leaf], {"children": "x"}, {"children": [1]}, {"children": [{"a": 1}]},
                {"children": [leaf], "o": OrderedDict(b=1, a=[2])}):
        assert to_canonical_json(odd) == _indented(odd)


def test_descent_terminates_everywhere():
    # every (g, b) reachable from small instances certifies or degenerates
    for p in (5, 7):
        for g, b, colors in ((0, 6, (1,) * 6), (1, 3, (1, 1, 2)), (2, 1, (2,))):
            cert = certify_irreducible(p, g, b, colors)
            assert cert.status in (
                CERTIFIED,
                CERTIFIED_MODULO_ASSUMPTION,
                VACUOUS,
                NOT_APPLICABLE,
            ), (p, g, b, colors, cert.status)
            assert not replay_certificate(cert.to_json())[1]


def test_replay_binds_torus_exponents_to_instance():
    # the exponents must be (j+a)(j+a+2), j < p-a-1, for the instance colour 2a
    torus = expand(certify_one_holed_torus(7, 1).to_json())
    assert replay_certificate(torus) == (CERTIFIED_MODULO_ASSUMPTION, [])

    def retarget(doc, exponents):
        wit = _first_witness(doc, "distinct_values")
        wit["exponents"] = exponents
        wit["values"] = [(-a_power(R7, e) if k % 2 else a_power(R7, e)).to_json()
                         for k, e in enumerate(exponents)]
        assert wit["duplicate"] is None
        assert len({json.dumps(v, sort_keys=True) for v in wit["values"]}) == len(exponents)

    exponents = _first_witness(torus, "distinct_values")["exponents"]
    assert exponents == [3, 8, 15, 24, 35]
    shifted = copy.deepcopy(torus)
    retarget(shifted, [e + 2 for e in exponents])
    truncated = copy.deepcopy(torus)
    retarget(truncated, exponents[:2])
    recoloured = copy.deepcopy(torus)
    recoloured["instance"] = dict(torus["instance"], colors=[4])
    for bad in (shifted, truncated, recoloured):
        status, problems = replay_certificate(bad)
        assert status == FAILED
        assert any(m.startswith("cert/twist-eigenvalues-distinct: stored exponents are not "
                                "(j+a)(j+a+2)") for m in problems), problems


def _loaded(cert) -> dict:
    """The certificate as replay reads it from a /1 artifact: no shared objects."""
    return expand(json.loads(to_canonical_json(cert.to_json())))


def _unshared(doc, copy_first=True) -> dict:
    """`doc` with a distinct nonce on every node, so no two subtrees are
    equal and the replay memo is never hit: the oracle for the memo."""
    if copy_first:
        doc = json.loads(json.dumps(doc))
    stack, count = [doc], 0
    while stack:
        node = stack.pop()
        node["nonce"] = count
        count += 1
        children = node.get("children", ())
        if isinstance(children, list):
            stack.extend(c for c in children if isinstance(c, dict))
    return doc


def _replay_outcome(doc):
    try:
        return replay_certificate(doc)
    except (KeyError, TypeError, AttributeError, ValueError) as e:
        return type(e).__name__


def _distinct_subtrees(doc) -> int:
    import skeinrep.certificates as certificates

    nodes: dict = {}
    certificates._intern_node(doc, {}, nodes)
    return len(nodes)


def _mutate(nodes, rng) -> None:
    """Change one field of one of `nodes`: a number, string, flag or null
    replaced, a key deleted or a list entry (a child, say) dropped.  Child
    ids in a table are dropped, never edited."""
    node = rng.choice(nodes)
    places = []

    def collect(value):
        for k, v in (value.items() if isinstance(value, dict) else enumerate(value)):
            places.append((value, k))
            if isinstance(v, (dict, list)) and v is not node["children"]:
                collect(v)

    collect(node)
    parent, key = rng.choice(places)
    v = parent[key]
    if isinstance(v, bool):
        parent[key] = not v
    elif isinstance(v, int):
        parent[key] = rng.choice([v + 1, v - 1, float(v), str(v)])
    elif isinstance(v, str):
        parent[key] = rng.choice([v + "x", FAILED, CERTIFIED, ""])
    elif v is None:
        parent[key] = 0
    elif isinstance(v, dict) and v:
        del v[rng.choice(sorted(v))]
    elif isinstance(v, list) and v:
        v.pop(rng.randrange(len(v)))
    else:
        parent[key] = None


def test_replay_memo_matches_unshared_oracle():
    doc = _loaded(certify_irreducible(5, 3, 0, ()))
    oracle = _unshared(doc)
    assert _distinct_subtrees(doc) < _distinct_subtrees(oracle)
    assert replay_certificate(doc) == replay_certificate(oracle) \
        == (CERTIFIED_MODULO_ASSUMPTION, [])
    text = json.dumps(doc)
    outcomes = set()
    for seed in range(80):
        bad = json.loads(text)
        _mutate(tree_nodes(bad), random.Random(seed))
        got = _replay_outcome(bad)
        assert got == _replay_outcome(_unshared(bad, copy_first=False)), seed
        outcomes.add(got if isinstance(got, str) else got[0])
    # the mutations reach clean replays, FAILED verdicts and malformed input
    assert {CERTIFIED_MODULO_ASSUMPTION, FAILED, "KeyError"} <= outcomes, outcomes


def _occurrences(doc, instance) -> list:
    """(path, node) of every node with `instance`, in document order."""
    found = []

    def walk(node, path):
        if node["instance"] == instance:
            found.append((path, node))
        for idx, child in enumerate(node["children"]):
            walk(child, f"{path}/{idx}")

    walk(doc, "cert")
    return found


# the one-holed torus with an untwisted boundary: its subtree (a reduction
# and the cited closed torus below it) repeats 72 times in (7, 3, 0)
_CAPPED_TORUS = {"mode": "root_of_unity", "p": 7, "g": 1, "b": 1, "colors": [0]}


def test_replay_memo_reports_the_tampered_occurrence():
    doc = _loaded(certify_irreducible(7, 3, 0, ()))
    found = _occurrences(doc, _CAPPED_TORUS)
    assert len(found) == 72 and found[0][1]["children"]
    name = found[0][1]["children"][0]["checks"][0]["name"]

    def tamper(node):
        node["children"][0]["checks"][0]["status"] = FAILED

    # one occurrence in the middle: exactly its path is reported
    path, node = found[40]
    tamper(node)
    status, problems = replay_certificate(doc)
    assert problems == [f"{path}/0/{name}: replayed PASSED, stored FAILED"]
    assert status == CERTIFIED_MODULO_ASSUMPTION
    assert (status, problems) == replay_certificate(_unshared(doc))

    # every occurrence: one problem per path, in document order
    for _, node in found:
        tamper(node)
    status, problems = replay_certificate(doc)
    assert problems == [f"{path}/0/{name}: replayed PASSED, stored FAILED"
                        for path, _ in found]
    assert (status, problems) == replay_certificate(_unshared(doc))


def test_replay_and_writer_keep_equal_numbers_of_other_types_apart():
    # 1, 1.0 and true are equal under ==, but replay messages and the JSON
    # text spell them differently, so their subtrees must not share a key
    doc = _loaded(certify_irreducible(7, 3, 0, ()))
    torus = {"mode": "root_of_unity", "p": 7, "g": 1, "b": 1, "colors": [2]}
    found = _occurrences(doc, torus)
    assert len(found) == 104
    stored = (1, 1.0, True)
    for (_, node), value in zip(found, stored):
        node["checks"][0]["witness"].update(value=value, expected=value)
    assert found[0][1] == found[1][1] == found[2][1]
    status, problems = replay_certificate(doc)
    assert status == FAILED
    for (path, _), value in zip(found, stored):
        assert f"{path}/dimension-count: dimension of [2] is 5, stored value {value}, " \
            f"expected {value}" in problems
    assert (status, problems) == replay_certificate(_unshared(doc))

    text = to_canonical_json(doc)
    assert text == _indented(doc)
    for spelled in ('"value": 1.0\n', '"value": true\n'):
        assert text.count(spelled) == 1, spelled


# ---------------------------------------------------------------------------
# skeinrep.certificate/2 node tables against their expanded /1 trees.
# ---------------------------------------------------------------------------

_TABLE_CASES = [
    (lambda: certify_irreducible(7, 0, 5, (1, 1, 1, 1, 2)), "7,0,5"),
    (lambda: certify_irreducible(5, 1, 2, (1, 1)), "5,1,2"),
    (lambda: certify_irreducible(7, 2, 1, (2,)), "7,2,1"),
    (lambda: certify_irreducible(7, 3, 0, ()), "7,3,0"),
    (lambda: certify_irreducible(5, 4, 0, ()), "5,4,0"),
    (lambda: certify_irreducible(11, 2, 0, ()), "11,2,0"),
    (lambda: certify_irreducible(13, 1, 2, (2, 2)), "13,1,2"),
    (lambda: certify_irreducible(5, 1, 1, (3,)), "5,1,1"),
    (lambda: certify_irreducible(5, 0, 3, (1, 1, 2)), "5,0,3"),
    (lambda: certify_irreducible(5, 3, 0, ()), "5,3,0"),
    (lambda: certify_irreducible(7, 1, 1, (2,)), "7,1,1"),
    (lambda: certify_density((1, 2, 2, 3, 3, 3)), "dense 122333"),
    (lambda: certify_density((1, 2, 2, 2, 2, 3)), "dense 122223"),
    (lambda: certify_density((1, 1, 1)), "dense 111"),
    (lambda: certify_density((1, 1, 1, 2)), "dense 1112"),
    (lambda: certify_density((0, 0, 0, 0, 0)), "dense 00000"),
]


@pytest.mark.parametrize("build", [b for b, _ in _TABLE_CASES],
                         ids=[name for _, name in _TABLE_CASES])
def test_table_replays_like_its_expansion(build):
    table = json.loads(to_canonical_json(build().to_json()))
    assert table["schema"] == SCHEMA and set(table) == {"schema", "root", "nodes"}
    result = replay_certificate(table)
    assert result == replay_certificate(expand(table))
    assert result == (table["nodes"][table["root"]]["status"], [])


def test_table_ids_are_hashes_of_compact_node_text():
    import hashlib

    table = certify_irreducible(7, 3, 0, ()).to_json()
    assert len(table["nodes"]) == 119
    for nid, node in table["nodes"].items():
        text = json.dumps(node, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == nid
        assert all(child in table["nodes"] for child in node["children"])
    text = to_canonical_json(table)
    assert text == json.dumps(table, sort_keys=True, separators=(",", ":")) + "\n"


def test_table_dump_matches_one_shot_dump():
    # a table is dumped one node at a time; the bytes must be those of one
    # json.dumps call, with other top-level keys before and after "nodes"
    table = certify_irreducible(7, 2, 1, (2,)).to_json()
    for doc in (table, dict(table, nodes={}), dict(table, aaa=[1, {"b": 2}], zzz="é")):
        want = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        assert to_canonical_json(doc) == want


def _reached(table) -> set:
    seen, stack = set(), [table["root"]]
    while stack:
        nid = stack.pop()
        if nid not in seen:
            seen.add(nid)
            children = table["nodes"][nid].get("children")
            stack.extend(children if isinstance(children, list) else ())
    return seen


@pytest.mark.parametrize("build, seeds", [
    (lambda: certify_irreducible(5, 3, 0, ()), range(80)),
    (lambda: certify_irreducible(7, 2, 1, (2,)), range(80, 200)),
    (lambda: certify_irreducible(7, 0, 5, (1, 1, 1, 1, 2)), range(200, 400)),
], ids=["5,3,0", "7,2,1", "7,0,5"])
def test_table_mutations_replay_like_their_expansions(build, seeds):
    # a mutated node stands for every occurrence of it in the expanded tree;
    # a node that a dropped child id leaves unreached is one more problem
    text = to_canonical_json(build().to_json())
    outcomes = set()
    for seed in seeds:
        bad = json.loads(text)
        _mutate(list(bad["nodes"].values()), random.Random(seed))
        got = _replay_outcome(bad)
        want = _replay_outcome(expand(bad))
        orphans = sorted(bad["nodes"].keys() - _reached(bad))
        if orphans and not isinstance(want, str):
            want = (FAILED, want[1] + [f"cert: node {nid} is not reachable from the root"
                                       for nid in orphans])
        assert got == want, seed
        outcomes.add(got if isinstance(got, str) else got[0])
    assert {FAILED, "KeyError"} <= outcomes, outcomes


def test_table_references_must_resolve_without_cycles_or_orphans():
    table = json.loads(to_canonical_json(certify_irreducible(7, 0, 5, (1, 1, 1, 1, 2)).to_json()))
    assert replay_certificate(table) == (CERTIFIED, [])
    root_id = table["root"]
    n_children = len(table["nodes"][root_id]["children"])
    spare = "f" * 64
    assert spare not in table["nodes"]

    # a child id that names no node
    bad = copy.deepcopy(table)
    bad["nodes"][root_id]["children"].append(spare)
    assert replay_certificate(bad) == (FAILED, [
        f"cert/{n_children}: no node {spare} in the table",
        "cert: replayed status FAILED, stored CERTIFIED"])

    # two nodes that are each other's child: the root's child 3 and a copy
    bad = copy.deepcopy(table)
    child_id = bad["nodes"][root_id]["children"][3]
    assert bad["nodes"][root_id]["children"].count(child_id) == 1
    child = bad["nodes"][child_id]
    assert child["children"] == [] and child["status"] == CERTIFIED
    bad["nodes"][spare] = dict(child, children=[child_id])
    child["children"] = [spare]
    status, problems = replay_certificate(bad)
    assert status == FAILED
    assert problems == [f"cert/3/0/0: node {child_id} is its own descendant",
                        "cert/3/0: replayed status FAILED, stored CERTIFIED",
                        "cert/3: replayed status FAILED, stored CERTIFIED",
                        "cert: replayed status FAILED, stored CERTIFIED"]

    # a node that the root cannot reach
    bad = copy.deepcopy(table)
    bad["nodes"][spare] = copy.deepcopy(bad["nodes"][root_id])
    assert replay_certificate(bad) == (
        FAILED, [f"cert: node {spare} is not reachable from the root"])

    # a root that names no node: every node is then unreached
    bad = copy.deepcopy(table)
    bad["root"] = spare
    status, problems = replay_certificate(bad)
    assert status == FAILED and problems[0] == f"cert: no node {spare} in the table"
    assert len(problems) == 1 + len(table["nodes"])

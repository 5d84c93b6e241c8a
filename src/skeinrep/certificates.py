"""Machine-checkable irreducibility certificates for mapping class group actions.

A certificate records, for one concrete representation space, the ordered list
of checks that establish irreducibility of the action, together with enough
witness data (nonzero scalars, admissible triples, graph edges) that the whole
verdict can be re-verified later without recomputing any fusion matrix.

The certified argument is always the same shape: two direct-sum decompositions
of the space into smaller pieces, a bipartite "decomposition graph" with an
edge wherever a cross-component is provably nonzero, and a connectivity search.
A connected graph over multiplicity-free decompositions forces any invariant
subspace to be everything.  At a root of unity undirected connectivity
suffices; over the generic ring the argument needs strong connectivity, so
edges are directed and both expansion directions are witnessed.

Larger surfaces are handled by a recursive driver that picks one of three
decomposition steps (two_boundary, closed, split), certifies the step graph,
and recurses into the summand factors, which are strictly smaller in the
(genus, boundary) lexicographic order.  Two base cases rest on cited external
facts (one-holed-torus pairings, Weil-type closed-torus action) and are
flagged as assumptions rather than silently trusted; such flags propagate up
the tree and downgrade CERTIFIED to CERTIFIED_MODULO_ASSUMPTION.
"""

from __future__ import annotations

import hashlib
import json
import marshal
from dataclasses import dataclass
from functools import partial
from typing import Sequence

from .matrices import RingMatrix
from .recoupling import fusion_matrix, middle_colors
from .scalars import GENERIC, RingSpec, Scalar, a_power, root_of_unity, scalar_from_json
from .spaces import dimension, is_admissible_triple
from .twists import twist_eigenvalue

SCHEMA = "skeinrep.certificate/2"
TREE_SCHEMA = "skeinrep.certificate/1"

CERTIFIED = "CERTIFIED"
CERTIFIED_MODULO_ASSUMPTION = "CERTIFIED_MODULO_ASSUMPTION"
FAILED = "FAILED"
VACUOUS = "VACUOUS"
NOT_APPLICABLE = "NOT_APPLICABLE"

PASSED = "PASSED"
CHECK_FAILED = "FAILED"
CITED = "CITED"

DEFAULT_MAX_DEPTH = 16


def _ring_json(ring: RingSpec) -> dict:
    return {"mode": ring.mode, "p": ring.p}


def _ring_from_json(data: dict) -> RingSpec:
    if data["mode"] == "generic":
        return GENERIC
    return root_of_unity(data["p"])


@dataclass(frozen=True)
class CheckRecord:
    """One named verification step with a self-contained, replayable witness."""

    name: str
    status: str
    witness: dict

    def to_json(self) -> dict:
        return {"name": self.name, "status": self.status, "witness": self.witness}


@dataclass(frozen=True)
class Certificate:
    claim: str
    instance: dict
    status: str
    detail: str = ""
    checks: tuple = ()
    assumptions: tuple = ()
    children: tuple = ()

    @property
    def certified(self) -> bool:
        return self.status in (CERTIFIED, CERTIFIED_MODULO_ASSUMPTION)

    def to_json(self) -> dict:
        """The certificate as a ``skeinrep.certificate/2`` document: the
        table of its distinct nodes under their ids, and the root's id."""
        nodes: dict = {}
        return {"schema": SCHEMA, "root": _table_node(self, nodes, {}), "nodes": nodes}


def _table_node(cert: Certificate, nodes: dict, ids: dict) -> str:
    """Id of `cert`'s node, added to `nodes` with its descendants.

    A node is the certificate's fields with ``children`` a list of child
    ids, and its id is the SHA-256 hex of its compact sorted JSON text, so
    equal subtrees get one id.  The drivers build each sub-instance once and
    share the object, so `ids` (keyed by ``id()`` of the objects, all alive
    for the walk) hashes each shared node once.
    """
    nid = ids.get(id(cert))
    if nid is None:
        node = {
            "claim": cert.claim,
            "instance": cert.instance,
            "status": cert.status,
            "detail": cert.detail,
            "assumptions": list(cert.assumptions),
            "checks": [c.to_json() for c in cert.checks],
            "children": [_table_node(c, nodes, ids) for c in cert.children],
        }
        text = json.dumps(node, sort_keys=True, separators=(",", ":"))
        nid = ids[id(cert)] = hashlib.sha256(text.encode()).hexdigest()
        nodes[nid] = node
    return nid


def _node_key(node: dict) -> bytes | None:
    """Exact in-process content key of a node, or None when the node holds
    a type marshal cannot write.

    ``marshal`` is C code and tags every value with its exact type, so equal
    keys mean equal values of equal types: ``1``, ``1.0``, ``true`` and
    ``"1"`` never share a key.  Equal values written differently (another
    key order, other object sharing) only get different keys.  The bytes
    are never written.
    """
    try:
        return marshal.dumps(node)
    except ValueError:
        return None


def to_canonical_json(doc: dict) -> str:
    """Deterministic serialization: sorted keys, fixed layout, no clocks.

    A ``skeinrep.certificate/2`` document is written compact, as
    ``json.dumps(doc, sort_keys=True, separators=(",", ":"))``, which runs
    the C encoder; every other payload is
    ``json.dumps(doc, sort_keys=True, indent=2)``.  Both end in a newline.
    The table is dumped one node at a time and joined under sorted ids: one
    call keeps all its fragments alive until it joins them.
    """
    if isinstance(doc, dict) and doc.get("schema") == SCHEMA:
        dump, nodes = partial(json.dumps, sort_keys=True, separators=(",", ":")), doc["nodes"]
        table = "{" + ",".join(dump(k) + ":" + dump(nodes[k]) for k in sorted(nodes)) + "}"
        return "{" + ",".join(dump(k) + ":" + (table if k == "nodes" else dump(v))
                              for k, v in sorted(doc.items())) + "}\n"
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _aggregate_status(check_statuses: Sequence[str], child_statuses: Sequence[str],
                      assumptions: Sequence[str]) -> str:
    """Status of a node from the statuses of its checks and children and from
    its assumptions; the certificate builders and replay share this rule."""
    if CHECK_FAILED in check_statuses or FAILED in child_statuses:
        return FAILED
    if assumptions or CITED in check_statuses or CERTIFIED_MODULO_ASSUMPTION in child_statuses:
        return CERTIFIED_MODULO_ASSUMPTION
    return CERTIFIED


def _node(claim: str, inst: dict, detail: str, checks: Sequence[CheckRecord],
          children: Sequence[Certificate] = (), assumptions: Sequence[str] = ()) -> Certificate:
    """A certificate whose status follows from its checks, children and
    assumptions by `_aggregate_status`."""
    status = _aggregate_status([c.status for c in checks], [c.status for c in children],
                               assumptions)
    return Certificate(claim, inst, status, detail, tuple(checks), tuple(assumptions),
                       tuple(children))


def _trivial_status(claim: str, b: int, dim_of) -> tuple:
    """(status, detail, dimension) of an irreducible or zariski-dense instance
    with b boundary circles, where status and detail are None when its space
    needs a proof.  ``dim_of()`` gives the dimension; it is not called for a
    zariski-dense instance with b < 4, which is NOT_APPLICABLE whatever its
    space.  The drivers, `certify_four_punctures` and replay share this rule."""
    if claim == "zariski-dense" and b < 4:
        return NOT_APPLICABLE, "fewer than four punctures", None
    dim = dim_of()
    irreducible = claim == "irreducible"
    if dim == 0:
        return (NOT_APPLICABLE if irreducible else VACUOUS), "zero-dimensional space", dim
    if dim == 1:
        return VACUOUS, ("dimension 1, trivially irreducible" if irreducible
                         else "dimension 1, projective action is trivial"), dim
    return None, None, dim


# ---------------------------------------------------------------------------
# Scalar-level primitives.
# ---------------------------------------------------------------------------


def _first_duplicate(vals: Sequence[Scalar]) -> list | None:
    """The lexicographically first pair [i, j], i < j, with equal values.

    Scalars are canonical, so equality is exact; for nonzero values it is the
    same test as vals[i] / vals[j] == 1.
    """
    first: dict = {}
    duplicate = None
    for k, v in enumerate(vals):
        i = first.setdefault(v, k)
        if i != k and (duplicate is None or i < duplicate[0]):
            duplicate = [i, k]
    return duplicate


def multiplicity_free_check(values: Sequence[Scalar]) -> tuple:
    """Pairwise distinctness of nonzero scalars.

    Distinctness is unchanged when every value is multiplied by a common
    unit, which is exactly the freedom a central extension has.
    """
    vals = list(values)
    for k, v in enumerate(vals):
        if v.is_zero():
            raise ValueError(f"value {k} is zero; multiplicity check needs units")
    duplicate = _first_duplicate(vals)
    witness = {
        "kind": "distinct_values",
        "values": [v.to_json() for v in vals],
        "duplicate": duplicate,
    }
    return duplicate is None, witness


@dataclass(frozen=True)
class DecompositionGraph:
    """Directed bipartite graph on two decompositions of the same space.

    Node names carry their side ("L:..." / "R:...").  Every edge stores the
    witness that justifies it: a nonzero transition scalar, an admissible
    triple, or a positive dimension count for a simultaneous refinement.
    """

    left: tuple
    right: tuple
    edges: tuple  # (src, dst, witness dict)

    def nodes(self) -> tuple:
        return self.left + self.right

    def to_json(self) -> dict:
        return {
            "left": list(self.left),
            "right": list(self.right),
            "edges": [
                {"from": src, "to": dst, "witness": wit} for src, dst, wit in self.edges
            ],
        }


def _components(nodes: Sequence[str], adjacency: dict) -> list:
    seen = set()
    out = []
    for start in nodes:
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adjacency.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        out.append(sorted(comp))
    return sorted(out)


def connectivity(graph: DecompositionGraph, mode: str) -> tuple:
    """Graph-search verdict; on failure the witness is the component partition.

    mode "undirected" ignores edge directions; mode "strong" requires every
    node reachable from every other along directed edges.
    """
    nodes = list(graph.nodes())
    if not nodes:
        raise ValueError("connectivity on an empty graph")
    if mode not in ("undirected", "strong"):
        raise ValueError(f"unknown connectivity mode {mode!r}")
    fwd: dict = {v: set() for v in nodes}
    rev: dict = {v: set() for v in nodes}
    for src, dst, _ in graph.edges:
        fwd[src].add(dst)
        rev[dst].add(src)
    if mode == "undirected":
        comps = _components(nodes, {v: fwd[v] | rev[v] for v in nodes})
        return len(comps) == 1, comps
    # the strong component of v is what v reaches intersected with what reaches v
    comps, seen = [], set()
    for v in nodes:
        if v not in seen:
            comp = set(_components([v], fwd)[0]) & set(_components([v], rev)[0])
            seen |= comp
            comps.append(sorted(comp))
    return len(comps) == 1, sorted(comps)


def build_decomposition_graph(F: RingMatrix, Finv: RingMatrix) -> DecompositionGraph:
    """Directed decomposition graph of an exact change-of-basis matrix.

    Columns of F index the source decomposition, rows the target one.  A
    nonzero entry F[j, i] means the i-th source summand leaks into the j-th
    target summand (edge L:i -> R:j).  Edges the other way come from Finv,
    the exact inverse of F; for a fusion matrix that is the reverse fusion
    matrix, so both directions carry honest nonzero witnesses.
    """
    if not F.is_square():
        raise ValueError("decomposition graph needs a square transition matrix")
    if (Finv.n_rows, Finv.n_cols) != (F.n_cols, F.n_rows):
        raise ValueError("inverse transition matrix has the wrong shape")
    left = tuple(f"L:{lbl}" for lbl in F.col_labels)
    right = tuple(f"R:{lbl}" for lbl in F.row_labels)
    edges = []
    for j, row_lbl in enumerate(F.row_labels):
        for i, col_lbl in enumerate(F.col_labels):
            v = F.entry(j, i)
            if not v.is_zero():
                edges.append(
                    (f"L:{col_lbl}", f"R:{row_lbl}",
                     {"kind": "nonzero_scalar", "scalar": v.to_json()})
                )
    for i, row_lbl in enumerate(Finv.row_labels):
        for j, col_lbl in enumerate(Finv.col_labels):
            v = Finv.entry(i, j)
            if not v.is_zero():
                edges.append(
                    (f"R:{col_lbl}", f"L:{row_lbl}",
                     {"kind": "nonzero_scalar", "scalar": v.to_json()})
                )
    return DecompositionGraph(left, right, tuple(edges))


def _connectivity_check(graph: DecompositionGraph, mode: str, ring: RingSpec) -> CheckRecord:
    """Connectivity verdict of a decomposition graph, witnessed by the graph
    itself and, on failure, by its component partition."""
    ok, comps = connectivity(graph, mode)
    wit = {"kind": "graph", "mode": mode, "ring": _ring_json(ring)}
    wit.update(graph.to_json())
    if not ok:
        wit["components"] = comps
    return CheckRecord(f"decomposition-graph-connected:{mode}",
                       PASSED if ok else CHECK_FAILED, wit)


# ---------------------------------------------------------------------------
# Base cases.
# ---------------------------------------------------------------------------


def _instance(ring: RingSpec, g: int, b: int, colors: Sequence[int]) -> dict:
    return {
        "mode": ring.mode,
        "p": ring.p,
        "g": g,
        "b": b,
        "colors": list(colors),
    }


def certify_four_punctures(colors: Sequence[int], ring: RingSpec) -> Certificate:
    """Irreducibility certificate for the four-holed sphere.

    The two pants decompositions (grouping boundary colors (a,b) versus (a,d))
    are each multiplicity-free because the twist eigenvalues of the separating
    curve are pairwise distinct, and the fusion matrix between them gives the
    decomposition graph.  A connected graph then pins every invariant
    subspace, with strong connectivity demanded in generic mode where no
    invariant pairing is available.
    """
    a, b, c, d = colors
    inst = _instance(ring, 0, 4, colors)
    i_set = middle_colors(a, b, c, d, ring)
    status, detail, _ = _trivial_status("irreducible", 4, lambda: len(i_set))
    if status:
        return Certificate("irreducible", inst, status, detail)
    j_set = middle_colors(a, d, c, b, ring)
    checks = []

    for name, channels in (
        ("twist-spectrum-distinct:first-pairing", i_set),
        ("twist-spectrum-distinct:second-pairing", j_set),
    ):
        vals = [twist_eigenvalue(ring, t) for t in channels]
        ok, wit = multiplicity_free_check(vals)
        wit["channels"] = list(channels)
        checks.append(CheckRecord(name, PASSED if ok else CHECK_FAILED, wit))

    # by 6j orthogonality the reverse fusion matrix is the inverse of F
    F = fusion_matrix(a, b, c, d, ring)
    graph = build_decomposition_graph(F, fusion_matrix(a, d, c, b, ring))
    mode = "strong" if ring.mode == "generic" else "undirected"
    checks.append(_connectivity_check(graph, mode, ring))

    # lowest-channel vector alone already meets every opposite summand
    i_min = max(abs(a - b), abs(c - d))
    entries = []
    all_nonzero = True
    for j in j_set:
        v = F.entry_by_label(j, i_min)
        entries.append({"row": j, "col": i_min, "scalar": v.to_json()})
        all_nonzero = all_nonzero and not v.is_zero()
    checks.append(CheckRecord(
        "lowest-channel-column-nonzero",
        PASSED if all_nonzero else CHECK_FAILED,
        {"kind": "nonzero_scalars", "entries": entries},
    ))

    return _node("irreducible", inst, "four-holed-sphere base case", checks)


def certify_one_holed_torus(p: int, a: int) -> Certificate:
    """One-holed torus with boundary color 2a.

    The computable half is a Vandermonde-style distinctness sweep over the
    twist eigenvalues (-1)^j A^((j+a)(j+a+2)); the nonvanishing of the base
    vector pairings is an external computation and stays an explicit
    assumption flag on the certificate.
    """
    ring = root_of_unity(p)
    if not 1 <= a <= (p - 3) // 2:
        raise ValueError(f"boundary parameter a={a} outside 1..{(p - 3) // 2}")
    inst = _instance(ring, 1, 1, (2 * a,))
    checks = []

    dim = dimension(1, 1, (2 * a,), ring)
    expected_dim = p - a - 1
    checks.append(CheckRecord(
        "dimension-count",
        PASSED if dim == expected_dim else CHECK_FAILED,
        {"kind": "dimension", "g": 1, "b": 1, "colors": [2 * a],
         "ring": _ring_json(ring), "value": dim, "expected": expected_dim},
    ))

    exponents = _torus_exponents(p, a)
    ok, wit = multiplicity_free_check(
        [_torus_value(ring, j, e) for j, e in enumerate(exponents)])
    wit["exponents"] = exponents
    checks.append(CheckRecord("twist-eigenvalues-distinct",
                              PASSED if ok else CHECK_FAILED, wit))

    assumption = "base-vector pairings assumed nonzero (external computation, not verified)"
    checks.append(CheckRecord("base-vector-pairings-nonzero", CITED,
                              {"kind": "cited", "statement": assumption}))

    return _node("irreducible", inst, "one-holed-torus base case", checks,
                 assumptions=(assumption,))


def _torus_exponents(p: int, a: int) -> list:
    """Twist exponents (j+a)(j+a+2), j < p-a-1, of the one-holed torus with
    boundary colour 2a."""
    return [(j + a) * (j + a + 2) for j in range(p - a - 1)]


def _torus_value(ring: RingSpec, j: int, e: int) -> Scalar:
    """The twist eigenvalue (-1)^j A^e of summand j of the one-holed torus."""
    return -a_power(ring, e) if j % 2 else a_power(ring, e)


def _certify_cited_torus(ring: RingSpec, g: int, b: int, colors: Sequence[int]) -> Certificate:
    # closed torus, or one-holed torus with untwisted boundary: classical
    # Weil-type action, irreducibility cited rather than recomputed
    inst = _instance(ring, g, b, colors)
    dim = dimension(g, b, colors, ring)
    assumption = "Weil-type representation, irreducibility cited (not verified)"
    checks = (
        CheckRecord("dimension-count", PASSED,
                    {"kind": "dimension", "g": g, "b": b, "colors": list(colors),
                     "ring": _ring_json(ring), "value": dim, "expected": dim}),
        CheckRecord("irreducibility-cited", CITED,
                    {"kind": "cited", "statement": assumption}),
    )
    return _node("irreducible", inst, "torus base case, cited", checks,
                 assumptions=(assumption,))


# ---------------------------------------------------------------------------
# Induction steps.
# ---------------------------------------------------------------------------


def _two_way_graph(left: list, right: list, witness) -> DecompositionGraph:
    """Decomposition graph with an edge each way between summands l of `left`
    and r of `right` wherever ``witness(l, r)`` is not None, left to right
    first.  A pair summand (i, j) is named "i,j"."""
    def name(side, s):
        return side + (f"{s[0]},{s[1]}" if isinstance(s, tuple) else str(s))
    lnames = [name("L:", l) for l in left]
    rnames = [name("R:", r) for r in right]
    edges = []
    for l, ln in zip(left, lnames):
        for r, rn in zip(right, rnames):
            wit = witness(l, r)
            if wit is not None:
                edges += [(ln, rn, wit), (rn, ln, wit)]
    return DecompositionGraph(tuple(lnames), tuple(rnames), tuple(edges))


def _triple_witness(ring: RingSpec, *triple) -> dict | None:
    """Edge witness that `triple` is admissible, or None when it is not."""
    if is_admissible_triple(*triple, ring):
        return {"kind": "admissible_triple", "triple": list(triple), "ring": _ring_json(ring)}
    return None


def _two_boundary_data(p: int, g: int, colors: Sequence[int]):
    """Step data for genus g >= 1 with two boundary circles.

    First decomposition: cut along the curve separating both boundary circles
    from the genus body; summands indexed by the cut color c.  Second: cut
    along two curves that chop off the genus body as a block, leaving a
    four-holed sphere in the middle; summands indexed by the pair (i, j).
    Cross-components are nonzero exactly when (c, i, j) is admissible.
    """
    ring = root_of_unity(p)
    a, b = colors
    left = []
    for c in range(p - 1):
        if is_admissible_triple(a, b, c, ring) and dimension(g, 1, (c,), ring) > 0:
            left.append(c)
    right = []
    for i in range(p - 1):
        for j in range(p - 1):
            if dimension(0, 4, (a, b, i, j), ring) > 0 \
                    and dimension(g - 1, 2, (i, j), ring) > 0:
                right.append((i, j))
    if not left or not right:
        return DecompositionGraph((), (), ()), [], []
    graph = _two_way_graph(left, right, lambda c, ij: _triple_witness(ring, c, *ij))

    checks = []
    hub = (p - 3) // 2
    hub_ok = (hub, hub) in right
    hub_triples = []
    for c in left:
        ok = is_admissible_triple(c, hub, hub, ring)
        hub_triples.append({"triple": [c, hub, hub], "admissible": ok})
        hub_ok = hub_ok and ok
    checks.append(CheckRecord(
        "hub-meets-every-summand",
        PASSED if hub_ok else CHECK_FAILED,
        {"kind": "admissible_triples", "ring": _ring_json(ring),
         "hub": [hub, hub], "triples": hub_triples},
    ))

    checks.append(_connectivity_check(graph, "undirected", ring))

    children = []
    for c in left:
        children.append((g, 1, (c,)))
    for (i, j) in right:
        children.append((0, 4, (a, b, i, j)))
        children.append((g - 1, 2, (i, j)))
    return graph, checks, children


def _closed_data(p: int, g: int, colors: Sequence[int]):
    """Step data for a closed surface of genus >= 2 (colors is empty).

    Both decompositions cut along a nonseparating curve (two different ones,
    realizable disjointly); every cross-component is met by a simultaneous
    refinement, witnessed by a positive dimension count for the surface cut
    along both curves at once.
    """
    ring = root_of_unity(p)
    families = [i for i in range(p - 1) if dimension(g - 1, 2, (i, i), ring) > 0]
    if not families:
        return DecompositionGraph((), (), ()), [], []

    def refinement(i, j):
        value = dimension(g - 2, 4, (i, i, j, j), ring)
        return {"kind": "refinement_dimension", "g": g - 2, "b": 4, "colors": [i, i, j, j],
                "ring": _ring_json(ring), "value": value} if value > 0 else None

    graph = _two_way_graph(families, families, refinement)
    edge_count, expected = len(graph.edges) // 2, len(families) ** 2
    checks = [CheckRecord(
        "simultaneous-refinement-complete",
        PASSED if edge_count == expected else CHECK_FAILED,
        {"kind": "complete_bipartite", "families": families,
         "edge_count": edge_count, "expected": expected},
    )]
    checks.append(_connectivity_check(graph, "undirected", ring))

    children = [(g - 1, 2, (i, i)) for i in families]
    return graph, checks, children


def _choose_split(g: int, b: int) -> tuple:
    """Smallest (g1, b1) whose four child shapes all precede (g, b)."""
    for g1 in range(g + 1):
        for b1 in range(b):
            g2, b2 = g - g1, b - 1 - b1
            shapes = ((g1, b1 + 1), (g2, b2 + 2), (g1, b1 + 2), (g2, b2 + 1))
            if all(s < (g, b) for s in shapes):
                return g1, b1, g2, b2
    raise ValueError(f"no descending split for surface ({g}, {b})")


def _split_data(p: int, g: int, colors: Sequence[int]):
    """Step data for the generic induction step.

    The last boundary color is the distinguished one; the remaining circles
    are divided between two subsurfaces.  The two decompositions regroup the
    distinguished circle with one side or the other, and a cross-component is
    nonzero exactly when (i, j, a) is admissible.
    """
    ring = root_of_unity(p)
    b = len(colors)
    a = colors[-1]
    if a == p - 2:
        raise ValueError("distinguished boundary color p-2 must be reduced away first")
    if a == 0:
        # a 0-colored circle caps off; with it distinguished the two
        # decompositions coincide and the chain argument has no room
        raise ValueError("distinguished boundary color 0 must be erased first")
    g1, b1, g2, b2 = _choose_split(g, b)
    c1 = tuple(colors[:b1])
    c2 = tuple(colors[b1:b1 + b2])

    left = []
    for i in range(p - 1):
        if dimension(g1, b1 + 1, c1 + (i,), ring) > 0 \
                and dimension(g2, b2 + 2, c2 + (i, a), ring) > 0:
            left.append(i)
    right = []
    for j in range(p - 1):
        if dimension(g1, b1 + 2, c1 + (a, j), ring) > 0 \
                and dimension(g2, b2 + 1, c2 + (j,), ring) > 0:
            right.append(j)
    if not left or not right:
        return DecompositionGraph((), (), ()), [], []

    graph = _two_way_graph(left, right, lambda i, j: _triple_witness(ring, i, j, a))

    checks = [CheckRecord(
        "split-shapes-descend", PASSED,
        {"kind": "split", "g1": g1, "b1": b1, "g2": g2, "b2": b2,
         "side_colors": [list(c1), list(c2)], "distinguished": a},
    )]

    # consecutive summands share a neighbor: the chain that carries
    # connectivity across the whole index interval
    chain = []
    chain_ok = True
    for t in range(len(left) - 1):
        i, i2 = left[t], left[t + 1]
        via = None
        for j in right:
            if is_admissible_triple(i, j, a, ring) and is_admissible_triple(i2, j, a, ring):
                via = j
                break
        chain.append({"pair": [i, i2], "via": via})
        chain_ok = chain_ok and via is not None
    checks.append(CheckRecord(
        "consecutive-summands-share-neighbor",
        PASSED if chain_ok else CHECK_FAILED,
        {"kind": "chain", "distinguished": a, "ring": _ring_json(ring),
         "pairs": chain},
    ))

    checks.append(_connectivity_check(graph, "undirected", ring))

    children = []
    for i in left:
        children.append((g1, b1 + 1, c1 + (i,)))
        children.append((g2, b2 + 2, c2 + (i, a)))
    for j in right:
        children.append((g1, b1 + 2, c1 + (a, j)))
        children.append((g2, b2 + 1, c2 + (j,)))
    return graph, checks, children


_STEP_BUILDERS = {
    "two_boundary": _two_boundary_data,
    "closed": _closed_data,
    "split": _split_data,
}


def induction_step_graph(kind: str, p: int, g: int, colors: Sequence[int] = ()) -> tuple:
    """Decomposition-step graph plus its standalone certificate.

    kind "two_boundary" needs g >= 1 and colors (a, b); "closed" needs g >= 2
    and no colors; "split" takes the full color tuple with the distinguished
    circle last.  The returned certificate covers only the step itself (node
    sets, edge witnesses, connectivity), not the summand recursion.
    """
    if kind not in _STEP_BUILDERS:
        raise ValueError(f"unknown induction step kind {kind!r}")
    if kind == "two_boundary" and (g < 1 or len(colors) != 2):
        raise ValueError("two_boundary step needs g >= 1 and exactly two colors")
    if kind == "closed" and (g < 2 or colors):
        raise ValueError("closed step needs g >= 2 and no boundary colors")
    if kind == "split" and not colors:
        raise ValueError("split step needs a nonempty color tuple")
    ring = root_of_unity(p)
    b = len(colors)
    graph, checks, _children = _STEP_BUILDERS[kind](p, g, colors)
    inst = _instance(ring, g, b, colors)
    if not graph.left or not graph.right:
        return graph, Certificate(f"decomposition-step:{kind}", inst, VACUOUS,
                                  detail="empty summand family")
    return graph, _node(f"decomposition-step:{kind}", inst, f"decomposition step ({kind})",
                        checks)


# ---------------------------------------------------------------------------
# Recursive driver.
# ---------------------------------------------------------------------------


def _reduce_max_color(p: int, colors: tuple) -> tuple:
    """One application of the boundary merge for a circle colored p-2."""
    k = colors.index(p - 2)
    partner = k + 1 if k + 1 < len(colors) else k - 1
    merged = p - 2 - colors[partner]
    lo, hi = min(k, partner), max(k, partner)
    reduced = colors[:lo] + (merged,) + colors[lo + 1:hi] + colors[hi + 1:]
    return reduced, k, partner


def certify_irreducible(p: int, g: int, b: int, colors: Sequence[int],
                        max_depth: int = DEFAULT_MAX_DEPTH) -> Certificate:
    """Full recursive irreducibility certificate at a root of unity.

    Dispatches on the surface type: four-holed sphere and one-holed torus are
    the computational base cases, two cited torus cases carry assumption
    flags, and everything else goes through a decomposition step whose
    summand factors are certified recursively.  Shared sub-instances are
    certified once and reused.
    """
    ring = root_of_unity(p)
    colors = tuple(colors)
    if len(colors) != b:
        raise ValueError(f"expected {b} boundary colors, got {len(colors)}")
    for c in colors:
        if not 0 <= c <= p - 2:
            raise ValueError(f"color {c} outside 0..{p - 2}")
    if g < 0 or b < 0:
        raise ValueError("genus and boundary count must be nonnegative")
    return _certify_tree(partial(_certify_surface, ring), lambda shape: shape,
                         (g, b, colors), max_depth)


def _certify_tree(build, key, arg, max_depth: int) -> Certificate:
    """Certificate of the instance `arg`, with its sub-instances certified
    recursively; both drivers run through here.

    ``build(arg, recurse)`` certifies one instance, and ``recurse(args)``
    returns the certificates of the sub-instances `args`, one per distinct
    memo key ``key(arg)``, in first-seen order.  Each key is built once per
    tree, by its first visit, at the depth of its first caller plus one; a
    later visit gets that certificate, so it keeps the first visit's `arg`.
    The memo is held by ``partial`` objects of a module-level function, not
    by a closure that calls itself: that would put the memo in a reference
    cycle and keep a finished tree alive until the cyclic collector runs.
    """
    return _certify_keys(build, key, {}, max_depth, 0, (arg,))[0]


def _certify_keys(build, key, memo: dict, max_depth: int, depth: int, args) -> list:
    distinct: dict = {}
    for arg in args:
        k = key(arg)
        if k not in memo:
            if depth > max_depth:
                raise ValueError(f"induction depth exceeds max_depth={max_depth}")
            memo[k] = build(arg, partial(_certify_keys, build, key, memo, max_depth, depth + 1))
        distinct.setdefault(k, memo[k])
    return list(distinct.values())


def _certify_surface(ring: RingSpec, shape: tuple, recurse) -> Certificate:
    g, b, colors = shape
    p = ring.p
    inst = _instance(ring, g, b, colors)
    status, detail, dim = _trivial_status("irreducible", b, partial(dimension, g, b, colors, ring))
    if status:
        return Certificate("irreducible", inst, status, detail)

    if 0 in colors and b >= 1 and (g, b) != (0, 4):
        # capping off an untwisted circle is an isomorphism of actions
        k = colors.index(0)
        reduced, partner = colors[:k] + colors[k + 1:], None
        check = "zero-color-erasure-preserves-dimension"
        detail = "untwisted boundary capped off"
    elif p - 2 in colors and b >= 2:
        reduced, k, partner = _reduce_max_color(p, colors)
        check = "boundary-merge-preserves-dimension"
        detail = "maximal boundary color merged away"
    else:
        check = None
    if check is not None:
        reduced_dim = dimension(g, b - 1, reduced, ring)
        checks = (CheckRecord(
            check,
            PASSED if reduced_dim == dim else CHECK_FAILED,
            {"kind": "reduction", "ring": _ring_json(ring), "g": g,
             "from": {"b": b, "colors": list(colors)},
             "to": {"b": b - 1, "colors": list(reduced)},
             "merged_index": k, "partner_index": partner,
             "dims": [dim, reduced_dim]},
        ),)
        return _node("irreducible", inst, detail, checks, recurse([(g, b - 1, reduced)]))

    if (g, b) == (0, 4):
        return certify_four_punctures(colors, ring)
    if (g, b) == (1, 1) and colors[0] > 0:
        return certify_one_holed_torus(p, colors[0] // 2)
    if (g, b) == (1, 1) or (g, b) == (1, 0):
        return _certify_cited_torus(ring, g, b, colors)
    if b == 2 and g >= 1:
        kind = "two_boundary"
    elif b == 0 and g >= 2:
        kind = "closed"
    else:
        kind = "split"
    graph, checks, shapes = _STEP_BUILDERS[kind](p, g, colors)
    if not graph.left or not graph.right:
        # unreachable for dim >= 2: the decomposition must cover the space
        raise ValueError(f"empty decomposition for positive-dimensional ({g}, {b})")
    del graph  # edges already recorded inside the connectivity witness
    for shape in shapes:
        if not shape[:2] < (g, b):
            raise ValueError(f"non-descending child {shape} of ({g}, {b})")
    return _node("irreducible", inst, f"decomposition step ({kind})", checks, recurse(shapes))


# ---------------------------------------------------------------------------
# Witness replay.
# ---------------------------------------------------------------------------

# kind -> handler(witness) -> check status; lets other modules teach the
# replayer their witness kinds without a circular import
REPLAY_HANDLERS: dict = {}


def register_replay_kind(kind: str, handler) -> None:
    REPLAY_HANDLERS[kind] = handler


def _replay_check(check: dict, inst: dict, problems: list, path: str) -> str:
    """Re-verify one check record of the node with instance `inst` from its
    witness; returns the replayed status."""
    wit = check.get("witness", {})
    kind = wit.get("kind")
    name = check.get("name", "?")
    where = f"{path}/{name}"

    if kind == "cited":
        return CITED

    if kind == "distinct_values":
        vals = [scalar_from_json(v) for v in wit["values"]]
        for k, v in enumerate(vals):
            if v.is_zero():
                problems.append(f"{where}: stored value {k} is zero")
                return CHECK_FAILED
        if "channels" in wit and not _values_match(
                "channel", wit["channels"], vals, where, problems,
                lambda ring, k, c: twist_eigenvalue(ring, c), "the twist eigenvalue of"):
            return CHECK_FAILED
        if "exponents" in wit:
            if not _values_match("exponent", wit["exponents"], vals, where, problems,
                                 _torus_value, "(-1)^k A^e for"):
                return CHECK_FAILED
            # one list for an instance (g, b) = (1, 1) with one even colour
            expected = [_torus_exponents(inst["p"], c // 2) for c in inst["colors"] if c % 2 == 0]
            if (inst["g"], inst["b"]) != (1, 1) or [wit["exponents"]] != expected:
                problems.append(f"{where}: stored exponents are not (j+a)(j+a+2), j < p-a-1, "
                                f"of the instance with colors {inst['colors']} at p = {inst['p']}")
                return CHECK_FAILED
        return PASSED if _first_duplicate(vals) is None else CHECK_FAILED

    if kind == "nonzero_scalars":
        for k, e in enumerate(wit["entries"]):
            if scalar_from_json(e["scalar"]).is_zero():
                problems.append(f"{where}: entry {k} scalar is zero")
                return CHECK_FAILED
        return PASSED

    if kind == "graph":
        ring = _ring_from_json(wit["ring"])
        edges = []
        for e in wit["edges"]:
            ew = e["witness"]
            if ew["kind"] == "nonzero_scalar":
                if scalar_from_json(ew["scalar"]).is_zero():
                    problems.append(f"{where}: edge {e['from']}->{e['to']} witness is zero")
                    return CHECK_FAILED
            elif ew["kind"] == "admissible_triple":
                if not is_admissible_triple(*ew["triple"], ring):
                    problems.append(f"{where}: edge triple {ew['triple']} inadmissible")
                    return CHECK_FAILED
            elif ew["kind"] == "refinement_dimension":
                d = dimension(ew["g"], ew["b"], tuple(ew["colors"]), ring)
                if d != ew["value"] or d <= 0:
                    problems.append(f"{where}: refinement dimension mismatch")
                    return CHECK_FAILED
            edges.append((e["from"], e["to"], ew))
        graph = DecompositionGraph(tuple(wit["left"]), tuple(wit["right"]), tuple(edges))
        ok, _ = connectivity(graph, wit["mode"])
        return PASSED if ok else CHECK_FAILED

    if kind == "admissible_triples":
        ring = _ring_from_json(wit["ring"])
        for t in wit["triples"]:
            if not t["admissible"]:
                problems.append(f"{where}: triple {t['triple']} is stored inadmissible")
                return CHECK_FAILED
            if not is_admissible_triple(*t["triple"], ring):
                problems.append(f"{where}: triple {t['triple']} inadmissible")
                return CHECK_FAILED
        return PASSED

    if kind == "chain":
        ring = _ring_from_json(wit["ring"])
        a = wit["distinguished"]
        for rec in wit["pairs"]:
            via = rec["via"]
            if via is None:
                problems.append(f"{where}: pair {rec['pair']} has no shared neighbor")
                return CHECK_FAILED
            i, i2 = rec["pair"]
            if not (is_admissible_triple(i, via, a, ring)
                    and is_admissible_triple(i2, via, a, ring)):
                problems.append(f"{where}: pair {rec['pair']} does not meet via {via}")
                return CHECK_FAILED
        return PASSED

    if kind == "dimension":
        ring = _ring_from_json(wit["ring"])
        d = dimension(wit["g"], wit["b"], tuple(wit["colors"]), ring)
        if d == wit["value"] == wit["expected"]:
            return PASSED
        problems.append(f"{where}: dimension of {wit['colors']} is {d}, stored value "
                        f"{wit['value']}, expected {wit['expected']}")
        return CHECK_FAILED

    if kind == "reduction":
        ring = _ring_from_json(wit["ring"])
        d_from = dimension(wit["g"], wit["from"]["b"], tuple(wit["from"]["colors"]), ring)
        d_to = dimension(wit["g"], wit["to"]["b"], tuple(wit["to"]["colors"]), ring)
        if d_from == d_to == wit["dims"][0]:
            return PASSED
        problems.append(f"{where}: dimensions {d_from} of {wit['from']['colors']} and "
                        f"{d_to} of {wit['to']['colors']}, stored {wit['dims'][0]}")
        return CHECK_FAILED

    if kind == "dimension_list":
        ring = _ring_from_json(wit["ring"])
        dims = []
        for e in wit["entries"]:
            d = dimension(e["g"], e["b"], tuple(e["colors"]), ring)
            if d != e["value"]:
                problems.append(f"{where}: dimension mismatch for {e['colors']}")
                return CHECK_FAILED
            dims.append(d)
        ok = sum(1 for d in dims if d == 1) <= 1 and sum(1 for d in dims if d == 2) <= 1
        return PASSED if ok else CHECK_FAILED

    if kind in REPLAY_HANDLERS:
        return REPLAY_HANDLERS[kind](wit)

    if kind in ("split", "complete_bipartite", "sorted_colors"):
        # structural/bookkeeping witnesses: checked at build time, carried for
        # inspection; replay re-derives nothing beyond internal consistency
        return check["status"]

    problems.append(f"{where}: unknown witness kind {kind!r}")
    return CHECK_FAILED


def _values_match(label: str, keys: list, vals: list, where: str, problems: list,
                  value_of, relation: str) -> bool:
    """Each stored value k must be value_of(ring, k, key) for its stored key."""
    if len(keys) != len(vals):
        problems.append(f"{where}: {len(keys)} {label}s for {len(vals)} values")
        return False
    for k, (key, v) in enumerate(zip(keys, vals)):
        try:
            ok = value_of(v.ring, k, key) == v
        except ValueError as e:
            problems.append(f"{where}: {label} {k}: {e}")
            return False
        if not ok:
            problems.append(f"{where}: stored value {k} is not {relation} {label} {key}")
            return False
    return True


def replay_certificate(doc: dict) -> tuple:
    """Re-verify a serialized certificate from stored witnesses alone.

    Returns (status, problems).  The status is recomputed bottom-up from the
    replayed checks; problems lists every disagreement with the stored
    document, so an empty list means the artifact replays exactly.

    Both schemas load into one table of distinct nodes whose ``children``
    are ids.  A ``/2`` document is that table.  A ``/1`` tree is interned
    by `_intern_node`, which gives equal subtrees one in-process id.  The
    walk from the root then replays each id once, keeps its status and its
    problems relative to the node's path, and at a repeat re-prefixes them
    with the current path.  That is sound because a node's replayed status
    and problems depend only on its content and its children's (a node on
    a cycle replays FAILED wherever it is entered); its path appears only
    as the prefix of its messages.  So the status, the
    problems and their order are those of replaying the expanded tree.  A
    child id that names no node, a node that is its own descendant and a
    node the root cannot reach are problems, and make the status FAILED.  A
    ``/2`` document whose root is not a string or whose nodes are not an
    object raises TypeError.
    """
    problems: list = []
    schema = doc.get("schema")
    if schema == SCHEMA:
        root, nodes = doc["root"], doc["nodes"]
        if not isinstance(root, str) or not isinstance(nodes, dict):
            raise TypeError("a certificate/2 document needs a string root and an object of nodes")
    elif schema == TREE_SCHEMA:
        nodes = {}
        root = _intern_node(doc, {}, nodes)
    else:
        problems.append(f"cert: unknown schema {schema!r}, want {SCHEMA!r} or {TREE_SCHEMA!r}")
        return FAILED, problems
    status = _replay_node(root, nodes, problems, "cert", {})
    for nid in sorted(nodes.keys() - _reachable(root, nodes)):
        problems.append(f"cert: node {nid} is not reachable from the root")
        status = FAILED
    return status, problems


def _root_node(doc: dict) -> dict:
    """The root node of a certificate document of either schema; {} when a
    ``/2`` root names no node."""
    if doc.get("schema") == SCHEMA:
        return doc["nodes"].get(doc["root"], {})
    return doc


def _intern_node(node, keys: dict, nodes: dict) -> int:
    """Id of the ``/1`` subtree `node`, added to `nodes` with its children
    replaced by their ids.  `keys` maps the exact content key (`_node_key`)
    of such an entry to its id, so equal subtrees share one.  A missing
    ``children`` reads as an empty list, and a string or object as the
    items it iterates, as in a walk of the tree.  A node that is not a dict,
    whose ``children`` is another type, or that holds a type the key cannot
    write gets an id of its own, and replay meets its flaw as the walk
    would."""
    children = node.get("children", []) if isinstance(node, dict) else None
    key = None
    if isinstance(children, (list, dict, str)):
        node = dict(node, children=[_intern_node(child, keys, nodes) for child in children])
        key = _node_key(node)
    nid = len(nodes) if key is None else keys.setdefault(key, len(nodes))
    nodes.setdefault(nid, node)
    return nid


def _reachable(root, nodes: dict) -> set:
    """Ids of the table nodes that `root` reaches through ``children``."""
    seen, stack = set(), [root]
    while stack:
        nid = stack.pop()
        if nid in nodes and nid not in seen:
            seen.add(nid)
            children = nodes[nid].get("children") if isinstance(nodes[nid], dict) else None
            if isinstance(children, list):
                stack.extend(children)
    return seen


def _replay_node(nid, nodes: dict, problems: list, path: str, memo: dict) -> str:
    """Replay the node `nid` of the table `nodes`; `memo` maps an id to the
    status and the path-relative problems of its first replay, or to None
    while that replay runs."""
    if nid in memo:
        if memo[nid] is None:
            problems.append(f"{path}: node {nid} is its own descendant")
            return FAILED
        status, relative = memo[nid]
        problems.extend(path + message for message in relative)
        return status
    if nid not in nodes:
        problems.append(f"{path}: no node {nid} in the table")
        return FAILED
    memo[nid] = None
    start = len(problems)
    status = _replay_new_node(nodes[nid], problems, path, nodes, memo)
    memo[nid] = (status, [message[len(path):] for message in problems[start:]])
    return status


def _replay_new_node(doc: dict, problems: list, path: str, nodes: dict, memo: dict) -> str:
    stored = doc.get("status")
    if stored in (VACUOUS, NOT_APPLICABLE):
        claim = doc.get("claim")
        if claim not in ("irreducible", "zariski-dense"):
            return stored  # an empty decomposition step
        inst = doc["instance"]
        derived = _trivial_status(claim, inst["b"], lambda: dimension(
            inst["g"], inst["b"], tuple(inst["colors"]), _ring_from_json(inst)))[0]
        if derived == stored:
            return stored
        problems.append(f"{path}: stored status {stored}, but its instance gives "
                        f"{derived or 'a space of dimension >= 2'}")
        return FAILED
    replayed_checks = []
    for check in doc.get("checks", ()):
        got = _replay_check(check, doc.get("instance"), problems, path)
        want = check.get("status")
        if got != want:
            problems.append(
                f"{path}/{check.get('name', '?')}: replayed {got}, stored {want}")
        replayed_checks.append(got)
    children = doc.get("children", [])
    if not isinstance(children, list):
        raise TypeError(f"{path}: children is not a list")
    child_statuses = [_replay_node(nid, nodes, problems, f"{path}/{idx}", memo)
                      for idx, nid in enumerate(children)]
    status = _aggregate_status(replayed_checks, child_statuses, doc.get("assumptions"))
    if status != stored:
        problems.append(f"{path}: replayed status {status}, stored {stored}")
    return status

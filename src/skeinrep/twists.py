"""Dehn twist matrices on graph bases.

A twist about a curve transverse to a basis edge is diagonal: the basis
vector with color c on that edge is scaled by

    mu_c = (-1)^c A^(c(c+2)).

Twists about other curves are reached by conjugation.  On genus-0 caterpillar
bases, a curve enclosing a consecutive block of punctures becomes
edge-transverse after a deterministic sequence of local tree rewrites, each
implemented by exact change-of-basis coefficients; a curve enclosing two
non-adjacent punctures is produced from round-curve twists via the lantern
relation on the four-holed sphere that contains it.

All twist matrices here are honest matrices of the twists up to one global
scalar (the framing normalization), which no downstream check depends on:
certificates only ever consume eigenvalue ratios and zero patterns.
"""

from __future__ import annotations

from .matrices import RingMatrix
from .recoupling import sixj
from .scalars import RingSpec, Scalar, a_power
from .spaces import channel_colors, enumerate_colorings, is_admissible_triple, standard_graph


def twist_eigenvalue(ring: RingSpec, c: int, inverse: bool = False) -> Scalar:
    """mu_c = (-1)^c A^(c(c+2)), the twist eigenvalue on an edge colored c."""
    if c < 0:
        raise ValueError(f"negative color {c}")
    if ring.mode == "root_of_unity" and c > ring.p - 2:
        raise ValueError(
            f"color {c} out of range for root-of-unity mode: want <= p-2 = {ring.p - 2}"
        )
    exponent = c * (c + 2)
    value = a_power(ring, -exponent if inverse else exponent)
    return -value if c % 2 else value


def edge_twist_matrix(
    graph, edge: int, boundary, ring: RingSpec, inverse: bool = False
) -> RingMatrix:
    """Diagonal twist about the curve transverse to the given edge, in the
    enumerate_colorings basis of the graph."""
    if not 0 <= edge < len(graph.edges):
        raise ValueError(f"edge index {edge} out of range")
    basis = enumerate_colorings(graph, boundary, ring)
    if not basis:
        raise ValueError("zero-dimensional space")
    entries = [twist_eigenvalue(ring, coloring[edge], inverse) for coloring in basis]
    return RingMatrix.diagonal(ring, entries, labels=basis)


# ---------------------------------------------------------------------------
# Association trees on the caterpillar basis.
#
# A tree shape is a laminar family of 1-based inclusive intervals (l, m) over
# punctures 1..n, each interval an internal node with exactly two children
# (children may be single-puncture leaves).  The root (1, n) carries color 0,
# which forces the color of its sibling-of-last-leaf node.  The canonical
# caterpillar shape is the left comb with nodes (1, k) for k = 2..n-1.
# ---------------------------------------------------------------------------


def _comb_shape(n: int) -> frozenset:
    return frozenset((1, k) for k in range(2, n + 1))


def _children(shape: frozenset, node: tuple) -> tuple:
    l, m = node
    best = l  # right end of the left child; leaf (l, l) if nothing larger
    for (a, b) in shape:
        if a == l and b < m and b > best:
            best = b
    left = (l, best)
    right = (best + 1, m)
    if best + 1 != m and right not in shape:
        raise ValueError(f"shape is not binary at {node}")
    return left, right


def _state_color(state: dict, node: tuple, boundary) -> int:
    if node[0] == node[1]:
        return boundary[node[0] - 1]
    return state[node]


def _enumerate_shape(shape: frozenset, boundary, ring: RingSpec) -> list:
    """All admissible colorings of a tree shape, as dicts node -> color,
    sorted by the color tuple in sorted-node order."""
    n = len(boundary)
    nodes = sorted(shape, key=lambda iv: (iv[1] - iv[0], iv))
    states = [{}]
    for node in nodes:
        left, right = _children(shape, node)
        out = []
        for state in states:
            lc = _state_color(state, left, boundary)
            rc = _state_color(state, right, boundary)
            if node == (1, n):
                if is_admissible_triple(lc, rc, 0, ring):
                    nxt = dict(state)
                    nxt[node] = 0
                    out.append(nxt)
                continue
            for col in channel_colors(lc, rc, ring):
                nxt = dict(state)
                nxt[node] = col
                out.append(nxt)
        states = out
    order = sorted(shape)
    states.sort(key=lambda s: tuple(s[nd] for nd in order))
    return states


def _comb_basis(n: int, boundary, ring: RingSpec):
    """The caterpillar basis as tree states, in enumerate_colorings order,
    together with the graph colorings used as basis labels."""
    graph = standard_graph(0, n)
    colorings = enumerate_colorings(graph, boundary, ring)
    states = []
    for coloring in colorings:
        state = {(1, n): 0, (1, n - 1): boundary[n - 1]}
        for k in range(n - 3):
            state[(1, k + 2)] = coloring[k]  # spine edge k separates 1..k+2
        states.append(state)
    return states, colorings


def _rewrite_move(shape, basis, node, boundary, ring):
    """One associativity rewrite ((X,Y),Z) -> (X,(Y,Z)) under `node`.

    Returns (new_shape, new_basis, M) with M the exact change of basis:
    new coordinates = M * old coordinates.
    """
    q_node, z_node = _children(shape, node)
    if q_node[0] == q_node[1]:
        raise ValueError(f"left child of {node} is a leaf; nothing to rewrite")
    x_node, y_node = _children(shape, q_node)
    r_node = (y_node[0], z_node[1])
    new_shape = frozenset(s for s in shape if s != q_node) | {r_node}
    new_basis = _enumerate_shape(new_shape, boundary, ring)
    if len(new_basis) != len(basis):
        raise ValueError("rewrite changed the dimension; inconsistent shape")
    index_of = {
        tuple(sorted(state.items())): idx for idx, state in enumerate(new_basis)
    }
    zero = Scalar.zero(ring)
    rows = [[zero] * len(basis) for _ in range(len(new_basis))]
    for old_idx, state in enumerate(basis):
        x = _state_color(state, x_node, boundary)
        y = _state_color(state, y_node, boundary)
        z = _state_color(state, z_node, boundary)
        t = _state_color(state, node, boundary)
        q = state[q_node]
        base = {k: v for k, v in state.items() if k != q_node}
        for r in channel_colors(y, z, ring):
            if not is_admissible_triple(x, r, t, ring):
                continue
            target = dict(base)
            target[r_node] = r
            new_idx = index_of[tuple(sorted(target.items()))]
            rows[new_idx][old_idx] = sixj(x, y, q, z, t, r, ring)
    M = RingMatrix(ring, rows)
    return new_shape, new_basis, M


def interval_twist_matrix(
    n: int, lo: int, hi: int, boundary, ring: RingSpec, inverse: bool = False
) -> RingMatrix:
    """Twist about the round curve enclosing punctures lo..hi (1-based,
    consecutive), in the caterpillar basis of the n-punctured sphere."""
    boundary = tuple(boundary)
    if len(boundary) != n:
        raise ValueError(f"expected {n} boundary colors, got {len(boundary)}")
    if not 1 <= lo <= hi <= n:
        raise ValueError(f"bad interval [{lo}..{hi}] for {n} punctures")
    if n < 3:
        raise ValueError("need at least 3 punctures")
    basis, labels = _comb_basis(n, boundary, ring)
    dim = len(basis)
    if dim == 0:
        raise ValueError("zero-dimensional space")

    def diagonal_on(node) -> RingMatrix:
        entries = [
            twist_eigenvalue(ring, _state_color(s, node, boundary), inverse)
            for s in basis
        ]
        return RingMatrix.diagonal(ring, entries, labels=labels)

    if lo == hi:
        return diagonal_on((lo, lo))
    if lo == 1 and hi == n:
        # the curve bounds an empty disk on the back of the sphere
        return RingMatrix.identity(ring, dim, labels=labels)
    if lo == 1:
        return diagonal_on((1, hi))
    if hi == n:
        # complementary curve on the sphere
        return diagonal_on((1, lo - 1))

    shape = _comb_shape(n)
    cur_basis = basis
    U = RingMatrix.identity(ring, dim)
    # hi - lo rewrites under (1, hi) turn the left comb into a shape with (lo, hi)
    for _ in range(hi - lo):
        shape, cur_basis, M = _rewrite_move(shape, cur_basis, (1, hi), boundary, ring)
        U = M * U
    target = (lo, hi)
    assert target in shape
    D = RingMatrix.diagonal(
        ring,
        [
            twist_eigenvalue(ring, _state_color(s, target, boundary), inverse)
            for s in cur_basis
        ],
    )
    result = U.inverse() * (D * U)
    return RingMatrix(ring, result.rows, row_labels=labels, col_labels=labels)


def pure_braid_twist(n: int, pair, boundary, ring: RingSpec) -> RingMatrix:
    """Twist about a curve enclosing exactly punctures i and j (1-based),
    in the caterpillar basis.

    Adjacent pairs are round curves.  A separated pair (i, j) is produced by
    the lantern relation on the four-holed sphere with holes {i}, the block
    {i+1..j-1}, {j}, and the outer boundary {i..j}:

        T_{[i..j-1]} T_{(i,j)} T_{[i+1..j]} = T_{[i..j]} mu_i T_{[i+1..j-1]} mu_j
    """
    i, j = pair
    boundary = tuple(boundary)
    if not (1 <= i < j <= n):
        raise ValueError(f"bad puncture pair {pair} for n={n}")
    if j == i + 1:
        return interval_twist_matrix(n, i, j, boundary, ring)
    left = interval_twist_matrix(n, i, j - 1, boundary, ring, inverse=True)
    outer = interval_twist_matrix(n, i, j, boundary, ring)
    block = interval_twist_matrix(n, i + 1, j - 1, boundary, ring)
    right = interval_twist_matrix(n, i + 1, j, boundary, ring, inverse=True)
    scalar = twist_eigenvalue(ring, boundary[i - 1]) * twist_eigenvalue(
        ring, boundary[j - 1]
    )
    product = left * outer * block * right
    return product.scale(scalar)

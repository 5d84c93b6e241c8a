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
# Tree states on the caterpillar basis.
#
# A basis vector is a dict from internal nodes to colors.  A node is a
# 1-based inclusive interval (l, m) of punctures; the leaf (k, k) carries
# boundary color k.  The caterpillar (left comb) has nodes (1, k) for
# k = 2..n, and the root (1, n) carries color 0.
# ---------------------------------------------------------------------------


def _state_color(state: dict, node: tuple, boundary) -> int:
    if node[0] == node[1]:
        return boundary[node[0] - 1]
    return state[node]


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


def _rewrite_move(basis, m, hi, boundary, ring):
    """One associativity rewrite ((X,Y),Z) -> (X,(Y,Z)) under node (1, hi).

    The node (1, m) has children X = (1, m-1), Y = the leaf m and
    Z = (m+1, hi); it is replaced by (m, hi).  Returns (new_basis, M) with M
    the exact change of basis: new coordinates = M * old coordinates.

    The new basis is the sorted set of target states the old basis reaches.
    That set is all of it: on each block of states that agree away from
    (1, m), the F-move is a bijection between the admissible colors of (1, m)
    and of (m, hi), because the fusion matrix is square.
    """
    t_node, q_node, r_node = (1, hi), (1, m), (m, hi)
    x_node, z_node = (1, m - 1), (m + 1, hi)
    y = boundary[m - 1]
    entries = {}
    for old_idx, state in enumerate(basis):
        x = _state_color(state, x_node, boundary)
        z = _state_color(state, z_node, boundary)
        t = _state_color(state, t_node, boundary)
        q = state[q_node]
        base = {k: v for k, v in state.items() if k != q_node}
        for r in channel_colors(y, z, ring):
            if is_admissible_triple(x, r, t, ring):
                target = tuple(sorted({**base, r_node: r}.items()))
                entries[target, old_idx] = sixj(x, y, q, z, t, r, ring)
    targets = sorted({target for target, _ in entries})
    if len(targets) != len(basis):
        raise ValueError(f"rewrite at {q_node} changed the dimension")
    index_of = {target: idx for idx, target in enumerate(targets)}
    zero = Scalar.zero(ring)
    rows = [[zero] * len(basis) for _ in targets]
    for (target, old_idx), value in entries.items():
        rows[index_of[target]][old_idx] = value
    return [dict(target) for target in targets], RingMatrix(ring, rows)


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

    def diagonal_on(node, states=basis, labels=labels) -> RingMatrix:
        entries = [
            twist_eigenvalue(ring, _state_color(s, node, boundary), inverse)
            for s in states
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

    # rewriting (1, m) into (m, hi) for m = hi-1 down to lo makes (lo, hi) a node
    cur_basis = basis
    U = RingMatrix.identity(ring, dim)
    for m in range(hi - 1, lo - 1, -1):
        cur_basis, M = _rewrite_move(cur_basis, m, hi, boundary, ring)
        U = M * U
    D = diagonal_on((lo, hi), cur_basis, None)
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

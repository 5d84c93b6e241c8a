"""Uni-trivalent graphs, admissible colorings, and dimensions of the
associated representation spaces.

A surface with genus g and b boundary circles retracts onto a uni-trivalent
graph; the space attached to the surface has a basis of admissible colorings
of that graph with prescribed boundary colors.  This module builds canonical
graphs, enumerates colorings, and computes dimensions both by brute force and
by a transfer-matrix fast path.

Admissibility at a trivalent vertex with colors (i, j, k):
  parity     i + j + k even
  triangle   |i - j| <= k <= i + j
  caps       (root-of-unity mode only) each color <= p-2 and i + j + k <= 2p-4

One deliberate wrinkle: at a vertex where a single edge loops back to itself
(colors (m, m, s) with both m's on the same edge), the sum cap does not
apply.  The doubled projector strands never form the closed cabled curve that
the cap excludes, and dropping it is what yields the genus-one dimension
count p - a/2 - 1 for boundary color a.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .scalars import RingSpec


# ---------------------------------------------------------------------------
# Admissibility.
# ---------------------------------------------------------------------------


def admissibility_failure(i: int, j: int, k: int, ring: RingSpec):
    """None if (i,j,k) is admissible, else a short reason code."""
    if min(i, j, k) < 0:
        return "negative-color"
    if ring.mode == "root_of_unity" and max(i, j, k) > ring.p - 2:
        return "exceeds-max-color"
    if (i + j + k) % 2 != 0:
        return "parity"
    if i + j < k or j + k < i or i + k < j:
        return "triangle"
    if ring.mode == "root_of_unity" and i + j + k > 2 * ring.p - 4:
        return "sum-cap"
    return None


def is_admissible_triple(i: int, j: int, k: int, ring: RingSpec) -> bool:
    return admissibility_failure(i, j, k, ring) is None


def channel_colors(i: int, j: int, ring: RingSpec) -> list:
    """All k with (i,j,k) admissible, ascending."""
    out = []
    hi = i + j
    if ring.mode == "root_of_unity":
        hi = min(hi, ring.p - 2, 2 * ring.p - 4 - i - j)
    for k in range(abs(i - j), hi + 1, 2):
        if is_admissible_triple(i, j, k, ring):
            out.append(k)
    return out


def _loop_colors(s: int, ring: RingSpec) -> list:
    """All m admissible at a loop vertex (m, m, s); the sum cap is waived."""
    if s < 0 or s % 2 != 0:
        return []
    if ring.mode == "root_of_unity":
        if s > ring.p - 2:
            return []
        return list(range(s // 2, ring.p - 1))
    raise ValueError("loop vertices have infinitely many colorings in generic mode")


# ---------------------------------------------------------------------------
# Graphs.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniTrivalentGraph:
    """Connected graph with vertices of degree 1 or 3 and ordered legs.

    vertices: vertex count, ids 0..n_vertices-1
    edges: (u, v) pairs; a self-edge (v, v) counts twice toward v's degree
    boundary_order: the degree-1 vertices in leg order
    """

    n_vertices: int
    edges: tuple
    boundary_order: tuple

    def __post_init__(self):
        if type(self.n_vertices) is not int or self.n_vertices < 0:
            raise ValueError(f"vertex count must be a nonnegative integer, "
                             f"got {self.n_vertices!r}")
        if not isinstance(self.edges, (list, tuple)):
            raise ValueError("edges must be a list of vertex pairs")
        edges = tuple(_int_tuple(e, "edge") for e in self.edges)
        if any(len(e) != 2 for e in edges):
            raise ValueError("each edge must be a pair of vertices")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "boundary_order",
                           _int_tuple(self.boundary_order, "boundary order"))
        deg = [0] * self.n_vertices
        for u, v in self.edges:
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ValueError("edge endpoint out of range")
            deg[u] += 1
            deg[v] += 1
        for v, d in enumerate(deg):
            if d not in (1, 3):
                raise ValueError(f"vertex {v} has degree {d}, want 1 or 3")
        legs = {v for v, d in enumerate(deg) if d == 1}
        if set(self.boundary_order) != legs or len(self.boundary_order) != len(legs):
            raise ValueError("boundary order must list each degree-1 vertex once")
        if self.n_vertices and len(self._component_of(0)) != self.n_vertices:
            raise ValueError("graph is not connected")

    def _component_of(self, start: int) -> set:
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for a, b in self.edges:
                for u, w in ((a, b), (b, a)):
                    if u == v and w not in seen:
                        seen.add(w)
                        stack.append(w)
        return seen

    @property
    def genus(self) -> int:
        return len(self.edges) - self.n_vertices + 1

    @property
    def n_legs(self) -> int:
        return len(self.boundary_order)

    def incident_edges(self, v: int) -> list:
        out = []
        for idx, (a, b) in enumerate(self.edges):
            if a == v:
                out.append(idx)
            if b == v:  # self-edges appear twice
                out.append(idx)
        return out

    def trivalent_vertices(self) -> list:
        return [v for v in range(self.n_vertices) if len(self.incident_edges(v)) == 3]

    def bfs_edge_order(self) -> list:
        """Edge indices in breadth-first discovery order from the first leg
        (from vertex 0 when there are no legs)."""
        start = self.boundary_order[0] if self.boundary_order else 0
        seen_v = {start}
        seen_e = set()
        order = []
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for idx in self.incident_edges(v):
                    if idx in seen_e:
                        continue
                    seen_e.add(idx)
                    order.append(idx)
                    a, b = self.edges[idx]
                    other = b if a == v else a
                    if other not in seen_v:
                        seen_v.add(other)
                        nxt.append(other)
            frontier = nxt
        return order

    def to_json(self) -> dict:
        return {
            "vertices": self.n_vertices,
            "edges": [list(e) for e in self.edges],
            "boundary_order": list(self.boundary_order),
        }


def _int_tuple(value, what: str) -> tuple:
    """`value` as a tuple; ValueError unless it is a list of ints."""
    if not isinstance(value, (list, tuple)) or any(type(x) is not int for x in value):
        raise ValueError(f"{what} must be a list of integers, got {value!r}")
    return tuple(value)


def graph_from_json(data: dict) -> UniTrivalentGraph:
    missing = [k for k in ("vertices", "edges", "boundary_order") if k not in data]
    if missing:
        raise ValueError(f"graph JSON lacks {', '.join(missing)}")
    return UniTrivalentGraph(data["vertices"], data["edges"], data["boundary_order"])


def standard_graph(g: int, b: int) -> UniTrivalentGraph:
    """Canonical retraction graph for genus g with b ordered legs.

    A caterpillar: a spine of g+b-2 trivalent vertices carrying b legs and
    then g stick-and-loop units, filled in spine order (the spine ends carry
    two attachments each).  Degenerate shapes with no trivalent vertex are
    rejected; genus-one-with-one-leg and genus-two-closed need no spine and
    are built directly.
    """
    if g < 0 or b < 0:
        raise ValueError("negative genus or leg count")
    if (g, b) in ((0, 0), (0, 1), (0, 2), (1, 0)):
        raise ValueError(f"no trivalent vertex in the ({g},{b}) graph; handled as a special case")
    if (g, b) == (1, 1):
        return UniTrivalentGraph(2, ((0, 1), (0, 0)), (1,))
    if (g, b) == (2, 0):
        return UniTrivalentGraph(2, ((0, 1), (0, 0), (1, 1)), ())

    spine = g + b - 2
    if spine == 1:
        slots = [3]
    else:
        slots = [2] + [1] * (spine - 2) + [2]
    spine_edges = [(k, k + 1) for k in range(spine - 1)]

    # attachment points in spine order, ends first within their vertex
    attach = []
    for v, count in enumerate(slots):
        attach.extend([v] * count)
    assert len(attach) == g + b

    next_vertex = spine
    leg_edges = []
    boundary = []
    for k in range(b):
        leg_edges.append((attach[k], next_vertex))
        boundary.append(next_vertex)
        next_vertex += 1
    stick_edges = []
    loop_edges = []
    for k in range(g):
        hub = attach[b + k]
        stick_edges.append((hub, next_vertex))
        loop_edges.append((next_vertex, next_vertex))
        next_vertex += 1

    edges = tuple(spine_edges + leg_edges + stick_edges + loop_edges)
    return UniTrivalentGraph(next_vertex, edges, tuple(boundary))


# ---------------------------------------------------------------------------
# Enumeration.
# ---------------------------------------------------------------------------


def _vertex_groups(graph: UniTrivalentGraph):
    """For each trivalent vertex: (vertex, incident edge indices, is_loop)."""
    out = []
    for v in graph.trivalent_vertices():
        inc = graph.incident_edges(v)
        is_loop = len(set(inc)) < len(inc)
        out.append((v, inc, is_loop))
    return out


def enumerate_colorings(
    graph: UniTrivalentGraph, boundary: Sequence[int], ring: RingSpec
) -> list:
    """All admissible colorings as tuples aligned to graph.edges.

    Results are ordered lexicographically in the breadth-first edge order
    from the first leg, which makes the output deterministic and stable
    across runs.
    """
    if len(boundary) != graph.n_legs:
        raise ValueError(
            f"boundary has {len(boundary)} colors for {graph.n_legs} legs"
        )
    if ring.mode == "generic" and graph.genus >= 1:
        raise ValueError(
            "infinite-dimensional: generic mode with genus >= 1 admits "
            "unboundedly many colorings"
        )

    n_edges = len(graph.edges)
    colors: list = [None] * n_edges

    # legs are forced by the boundary vector
    leg_edge_of = {}
    for idx, (u, v) in enumerate(graph.edges):
        for leg_pos, leg_vertex in enumerate(graph.boundary_order):
            if leg_vertex in (u, v):
                leg_edge_of[leg_vertex] = idx
    for leg_pos, leg_vertex in enumerate(graph.boundary_order):
        colors[leg_edge_of[leg_vertex]] = boundary[leg_pos]

    groups = _vertex_groups(graph)
    order = [idx for idx in graph.bfs_edge_order() if colors[idx] is None]

    max_color = None
    if ring.mode == "root_of_unity":
        max_color = ring.p - 2
    else:
        max_color = sum(boundary)  # triangle bound: no internal color exceeds this

    def candidates(idx: int) -> Iterable[int]:
        u, v = graph.edges[idx]
        if u == v:
            # loop edge: the stick color is already set in BFS order
            for vtx, inc, is_loop in groups:
                if vtx == u:
                    stick = next(e for e in inc if e != idx)
                    s = colors[stick]
                    return _loop_colors(s, ring) if s is not None else range(max_color + 1)
        best = None
        for vtx, inc, is_loop in groups:
            if idx not in inc or is_loop:
                continue
            known = [colors[e] for e in inc if e != idx]
            if None not in known:
                ch = channel_colors(known[0], known[1], ring)
                best = ch if best is None else [k for k in best if k in set(ch)]
        if best is not None:
            return best
        return range(max_color + 1)

    def vertex_ok(vtx: int, inc: list, is_loop: bool) -> bool:
        vals = [colors[e] for e in inc]
        if None in vals:
            return True
        if is_loop:
            loop_edge = next(e for e in set(inc) if inc.count(e) == 2)
            stick_edge = next(e for e in set(inc) if inc.count(e) == 1)
            return colors[loop_edge] in _loop_colors(colors[stick_edge], ring)
        return is_admissible_triple(vals[0], vals[1], vals[2], ring)

    results = []

    def backtrack(pos: int):
        if pos == len(order):
            results.append(tuple(colors))
            return
        idx = order[pos]
        for c in candidates(idx):
            colors[idx] = c
            if all(vertex_ok(*grp) for grp in groups if idx in grp[1]):
                backtrack(pos + 1)
            colors[idx] = None

    # graphs with no free edges (pure trees with all legs fixed) still need
    # the vertex check
    if not order:
        if all(vertex_ok(*grp) for grp in groups):
            return [tuple(colors)]
        return []
    backtrack(0)
    return results


# ---------------------------------------------------------------------------
# Dimensions.
# ---------------------------------------------------------------------------


def _loop_weight(s: int, ring: RingSpec) -> int:
    return len(_loop_colors(s, ring))


def _dimension_transfer(g: int, b: int, boundary: Sequence[int], ring: RingSpec) -> int:
    """Transfer-matrix count along the caterpillar spine."""
    if (g, b) == (1, 1):
        return _loop_weight(boundary[0], ring)
    if (g, b) == (2, 0):
        total = 0
        for s in range(0, ring.p - 1, 2):
            w = _loop_weight(s, ring)
            total += w * w
        return total

    spine = g + b - 2
    if spine == 1:
        slots = [3]
    else:
        slots = [2] + [1] * (spine - 2) + [2]

    # attachment colors per slot: a leg contributes its fixed color with
    # weight 1; a stick ranges over even colors weighted by loop count
    def slot_options(slot_index: int):
        if slot_index < b:
            return [(boundary[slot_index], 1)]
        if ring.mode != "root_of_unity":
            raise ValueError("infinite-dimensional: generic mode with genus >= 1")
        return [
            (s, _loop_weight(s, ring))
            for s in range(0, ring.p - 1, 2)
            if _loop_weight(s, ring) > 0
        ]

    slot_of_vertex = []
    pos = 0
    for count in slots:
        slot_of_vertex.append(list(range(pos, pos + count)))
        pos += count

    if spine == 1:
        total = 0
        for c1, w1 in slot_options(0):
            for c2, w2 in slot_options(1):
                for c3, w3 in slot_options(2):
                    if is_admissible_triple(c1, c2, c3, ring):
                        total += w1 * w2 * w3
        return total

    # state: color of the spine edge to the right of the current vertex
    state = {}
    s1, s2 = slot_of_vertex[0]
    for c1, w1 in slot_options(s1):
        for c2, w2 in slot_options(s2):
            for t in channel_colors(c1, c2, ring):
                state[t] = state.get(t, 0) + w1 * w2
    for v in range(1, spine - 1):
        (sv,) = slot_of_vertex[v]
        nxt = {}
        for t, w in state.items():
            for d, wd in slot_options(sv):
                for u in channel_colors(t, d, ring):
                    nxt[u] = nxt.get(u, 0) + w * wd
        state = nxt
    total = 0
    sA, sB = slot_of_vertex[spine - 1]
    for t, w in state.items():
        for c1, w1 in slot_options(sA):
            for c2, w2 in slot_options(sB):
                if is_admissible_triple(t, c1, c2, ring):
                    total += w * w1 * w2
    return total


def dimension(g: int, b: int, boundary: Sequence[int], ring: RingSpec) -> int:
    """Dimension of the space for genus g, b boundary circles, given colors."""
    boundary = tuple(boundary)
    if len(boundary) != b:
        raise ValueError(f"expected {b} boundary colors, got {len(boundary)}")
    if any(c < 0 for c in boundary):
        raise ValueError("negative boundary color")
    if ring.mode == "generic" and g >= 1:
        raise ValueError(
            "infinite-dimensional: generic mode with genus >= 1 has no "
            "finite coloring count"
        )
    if ring.mode == "root_of_unity" and any(c > ring.p - 2 for c in boundary):
        return 0

    if (g, b) == (0, 0):
        return 1
    if (g, b) == (0, 1):
        return 1 if boundary[0] == 0 else 0
    if (g, b) == (0, 2):
        return 1 if boundary[0] == boundary[1] else 0
    if (g, b) == (1, 0):
        return ring.p - 1  # any single color on the plain loop

    return _dimension_transfer(g, b, boundary, ring)

"""Zariski-density certificates for braid actions on punctured-disk spaces.

Over the generic ring Q(A) the projective image of the braid group acting on
a punctured-sphere space is dense in the full projective linear group, and
the argument is inductive in the number of punctures.  The base case is the
four-punctured sphere: there the space is irreducible, a half twist about two
punctures acts with eigenvalue ratios that are pure monomials in A (hence of
infinite order), and the exponent set of the full twist satisfies two integer
conditions (distinct pairwise differences, indecomposable first gap) that pin
the connected closure down to the whole special linear group.

The induction step fuses the two smallest punctures.  Restricting to the
braids that fix the first strand decomposes the space into summands indexed
by the fusion channel; the summands are told apart by the eigenvalue spectra
of the twist about the fused strand and its neighbour, compared projectively
(up to one global scalar) and up to duality (spectrum inversion).  Once the
summands are pairwise distinct, at most one of dimension 1 and at most one of
dimension 2, and each big summand is dense in its own projective group, the
whole image is dense.  Each certificate node stores the exponent sets and
dimension tables it used, so the verdict replays from the artifact alone.

Everything here is specific to genus 0 and to the generic ring; density at a
root of unity fails outright (the image is finite or compact) and is not
modelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .certificates import (
    CHECK_FAILED,
    DEFAULT_MAX_DEPTH,
    PASSED,
    Certificate,
    CheckRecord,
    _certify_tree,
    _instance,
    _node,
    _ring_json,
    _trivial_status,
    certify_four_punctures,
    register_replay_kind,
)
from .recoupling import middle_colors, tet_summands
from .scalars import GENERIC, Scalar, a_power, scalar_from_json
from .spaces import dimension


# ---------------------------------------------------------------------------
# Scalar-level ingredients of the base case.
# ---------------------------------------------------------------------------


def tet_nonzero_generic(a: int, b: int, i: int, c: int, d: int, j: int) -> tuple:
    """Decide tet(a,b,i,c,d,j) != 0 over Q(A), with a degree report.

    The verdict comes from summing the tetrahedron series exactly, so it is
    authoritative.  The report additionally lists each summand's top A-degree
    and whether the maximum is attained by a single summand; when it is, the
    nonvanishing is visible without any cancellation analysis, which is the
    usual quick argument.  The report is diagnostic only.
    """
    terms = tet_summands(a, b, i, c, d, j, GENERIC)
    total = Scalar.zero(GENERIC)
    for t in terms:
        total = total + t
    degrees = [t.leading_degree() for t in terms]
    top = max(degrees)
    report = {
        "value": total.to_json(),
        "summand_degrees": degrees,
        "max_degree": top,
        "max_degree_unique": degrees.count(top) == 1,
    }
    return not total.is_zero(), report


def infinite_order_ratio(i: int) -> Scalar:
    """Ratio of consecutive twist eigenvalues at channels i and i+2: -A^(4i+8).

    The exponent 4i+8 is positive for every color i >= 0, and A is
    transcendental over Q, so the ratio can never be a root of unity; any
    element with this ratio in its spectrum has infinite order.
    """
    if i < 0:
        raise ValueError(f"color {i} is negative")
    return -a_power(GENERIC, 4 * i + 8)


def weight_scalar_analysis(exponents: Sequence[int]) -> dict:
    """Integer analysis of a twist exponent set, deciding SL-fullness.

    Takes the eigenvalue exponents of a diagonalized twist (any common shift
    is irrelevant and ignored) and checks the two conditions that force the
    connected Zariski closure of a group containing that twist, acting
    irreducibly, to be all of SL:

      1. the first gap w[1] - w[0] occurs exactly once among all pairwise
         differences of exponents (no other pair is the same distance
         apart), and
      2. the first gap is not a sum of the other pairwise differences with
         positive integer coefficients (bounded exhaustive search; in
         practice forced because the first gap is strictly minimal, which is
         verified and recorded).

    Distinctness of ALL pairwise differences would be too strong: square-like
    exponent sequences admit coincidences such as 49 - 25 = 25 - 1 among the
    larger gaps, which are harmless.  Only the minimal difference has to be
    isolated.  Returns a dict with verdict "SL_FULL(k)" or "INCONCLUSIVE"
    plus the witnesses for both conditions.  The step from these two scalar
    facts to the group statement is standard weight-lattice bookkeeping and
    is recorded, not recomputed.
    """
    w = sorted(exponents)
    if len(w) < 2:
        raise ValueError("need at least two weight exponents")
    out: dict = {"weights": w}

    if any(w[k] == w[k + 1] for k in range(len(w) - 1)):
        out.update(verdict="INCONCLUSIVE", reason="repeated weight exponent",
                   first_gap=0, first_gap_unique=False, collision=None)
        return out

    gap = w[1] - w[0]
    collision = None
    minimal = True
    others = set()
    for j, k in combinations(range(len(w)), 2):
        if (j, k) == (0, 1):
            continue
        d = w[k] - w[j]
        others.add(d)
        if d == gap and collision is None:
            collision = [j, k]
        if d < gap:
            minimal = False
    out["first_gap"] = gap
    out["first_gap_unique"] = collision is None
    out["collision"] = collision
    out["first_gap_minimal"] = minimal and collision is None

    # coin-style reachability up to the target; every element exceeds the
    # target whenever the gap is minimal, so this loop is usually empty
    elements = sorted(others)
    out["elements"] = elements
    parent = {0: None}
    for v in range(1, gap + 1):
        for e in elements:
            if e <= v and (v - e) in parent:
                parent[v] = e
                break
    combination = None
    if gap in parent and gap > 0:
        combination, v = [], gap
        while v:
            combination.append(parent[v])
            v -= parent[v]
    out["decomposition"] = combination

    if collision is None and combination is None:
        out["verdict"] = f"SL_FULL({len(w)})"
    else:
        out["verdict"] = "INCONCLUSIVE"
        out["reason"] = ("first gap repeats among pairwise differences"
                         if collision is not None
                         else "first gap decomposes over the remaining gaps")
    return out


# ---------------------------------------------------------------------------
# Eigenvalue sets of the fused-strand twist, and summand separation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenvalueSet:
    """Spectrum of the twist about the fused strand and its first neighbour.

    For the summand with fusion channel ``a`` over fixed colors (c_1..c_n),
    the twist acts with one eigenvalue +-A^(i(i+2)) per color i admissible
    between a, c_1 and the rest of the boundary.  ``colors`` lists those i in
    increasing order and ``exponents`` their twist exponents; both are empty
    when the parity of a against the fixed colors rules every i out.  The
    governance flags record which side of a's triangle inequality actually
    bites at each end of the interval, the situation in which varying a is
    guaranteed to move the interval.
    """

    a: int
    fixed: tuple
    colors: tuple
    exponents: tuple
    lower: int
    upper: int
    lower_governed_by_a: bool
    upper_governed_by_a: bool

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "fixed": list(self.fixed),
            "colors": list(self.colors),
            "exponents": list(self.exponents),
            "lower": self.lower,
            "upper": self.upper,
            "lower_governed_by_a": self.lower_governed_by_a,
            "upper_governed_by_a": self.upper_governed_by_a,
        }


def eigenvalue_set(a: int, fixed: Sequence[int]) -> EigenvalueSet:
    """Exact twist spectrum of the channel-``a`` summand over ``fixed`` colors.

    The eigenvalue colors i must form an admissible triple with (a, c_1) and
    must leave a nonzero space on the remaining colors (c_2..c_n), which cuts
    out one parity class of an integer interval.  An empty result is valid
    and means the summand itself is zero.  The fixed colors must be
    nondecreasing: the interval endpoints single out c_n as the only color
    whose triangle constraint can bind, which is wrong for unsorted input.
    """
    if a < 0:
        raise ValueError(f"channel color {a} is negative")
    fixed = tuple(fixed)
    if len(fixed) < 2:
        raise ValueError("need at least two fixed colors")
    if any(c < 0 for c in fixed):
        raise ValueError(f"fixed colors {fixed} contain a negative entry")
    if any(fixed[k] > fixed[k + 1] for k in range(len(fixed) - 1)):
        raise ValueError(f"fixed colors {fixed} are not nondecreasing")

    c1, cn = fixed[0], fixed[-1]
    lower = max(cn - sum(fixed[1:-1]), abs(a - c1))
    upper = min(a + c1, sum(fixed[1:]))

    if (a + sum(fixed)) % 2:
        colors: tuple = ()
    else:
        start = lower + ((a + c1 - lower) % 2)
        colors = tuple(range(start, upper + 1, 2))

    return EigenvalueSet(
        a=a,
        fixed=fixed,
        colors=colors,
        exponents=tuple(i * (i + 2) for i in colors),
        lower=lower,
        upper=upper,
        lower_governed_by_a=abs(a - c1) >= cn - sum(fixed[1:-1]),
        upper_governed_by_a=a + c1 <= sum(fixed[1:]),
    )


def _shift_normal(exponents: Sequence[int]) -> tuple:
    exps = sorted(exponents)
    return tuple(e - exps[0] for e in exps) if exps else ()


def _separation(exps1: Sequence[int], exps2: Sequence[int]) -> tuple:
    """How two twist spectra differ projectively: (separated_by, collision).

    Spectra are compared up to one global scalar (a common exponent shift)
    and up to duality (inverting every eigenvalue).  Exactly one of the two
    return slots is None.
    """
    if len(exps1) != len(exps2):
        return "cardinality", None
    n1, n2 = _shift_normal(exps1), _shift_normal(exps2)
    if n1 == n2:
        return None, "isomorphic"
    if n1 == _shift_normal([-e for e in exps2]):
        return None, "dual"
    return "eigenvalue-ratios", None


def noniso_check(colors: Sequence[int], a_values: Sequence[int] | None = None) -> Certificate:
    """Certify that the channel summands over ``colors`` are pairwise distinct.

    ``colors`` are the fixed boundary colors (c_1..c_n), nondecreasing, and
    each candidate channel a contributes the summand whose twist spectrum is
    eigenvalue_set(a, colors).  Summands that are isomorphic or dual to each
    other would share a spectrum up to scalar; the check computes every
    spectrum exactly and compares all pairs.  Empty spectra (zero summands)
    are skipped.  Default channel range is 0..2*c_1 in the parity of the
    fixed colors, which covers every channel a fused pair of punctures with
    smallest colors can produce.
    """
    colors = tuple(colors)
    if len(colors) < 3:
        raise ValueError("at least three fixed colors required")
    if any(colors[k] > colors[k + 1] for k in range(len(colors) - 1)):
        raise ValueError(f"fixed colors {colors} are not nondecreasing")

    total = sum(colors)
    if a_values is None:
        a_values = [a for a in range(0, 2 * colors[0] + 1) if (a + total) % 2 == 0]
    a_values = list(a_values)

    sets = [eigenvalue_set(a, colors) for a in a_values]
    occupied = [es for es in sets if es.colors]
    skipped = [es.a for es in sets if not es.colors]

    pairs = []
    all_separated = True
    for e1, e2 in combinations(occupied, 2):
        how, collision = _separation(e1.exponents, e2.exponents)
        rec = {"a": e1.a, "a2": e2.a, "separated_by": how, "collision": collision}
        pairs.append(rec)
        if how is None:
            all_separated = False

    witness = {
        "kind": "exponent_separation",
        "fixed_colors": list(colors),
        "sets": [es.to_json() for es in occupied],
        "skipped_empty": skipped,
        "pairs": pairs,
        "endpoints_governed_by_a": all(
            es.lower_governed_by_a and es.upper_governed_by_a for es in occupied),
    }
    checks = (CheckRecord(
        "twist-spectra-pairwise-distinct",
        PASSED if all_separated else CHECK_FAILED,
        witness,
    ),)
    return _node(
        "summands-pairwise-distinct",
        {"mode": "generic", "p": None, "fixed_colors": list(colors), "a_values": a_values},
        f"{len(pairs)} summand pairs compared, {len(skipped)} empty channels skipped",
        checks,
    )


def dimension_conditions(dims: Sequence[int]) -> tuple:
    """At most one summand of dimension 1 and at most one of dimension 2.

    Small summands are the ones whose projective groups are degenerate or
    too symmetric to pin down the ambient group; the assembly argument
    tolerates one of each.  Returns (ok, witness with offending indices).
    """
    dims = list(dims)
    ones = [k for k, d in enumerate(dims) if d == 1]
    twos = [k for k, d in enumerate(dims) if d == 2]
    return len(ones) <= 1 and len(twos) <= 1, {"dims": dims, "ones": ones, "twos": twos}


# ---------------------------------------------------------------------------
# The density certificate driver.
# ---------------------------------------------------------------------------


def certify_density(colors: Sequence[int], max_depth: int = DEFAULT_MAX_DEPTH) -> Certificate:
    """Certify Zariski density of the braid image on a punctured-sphere space.

    ``colors`` are the puncture colors of a genus-0 surface over Q(A), one
    per puncture.  Fewer than four punctures -> NOT_APPLICABLE (the image is
    solvable-by-finite and never dense).  Dimension 0 or 1 -> VACUOUS.  The
    four-puncture base case combines the irreducibility certificate, the
    infinite-order twist ratios, and the weight analysis; larger instances
    sort the colors, fuse the two smallest punctures, and recurse into every
    nonzero channel summand after separating them pairwise.
    """
    colors = tuple(colors)
    if any(c < 0 for c in colors):
        raise ValueError(f"colors {colors} contain a negative entry")
    return _certify_tree(_certify_dense, lambda colors: tuple(sorted(colors)), colors, max_depth)


def _certify_dense(colors: tuple, recurse) -> Certificate:
    n = len(colors)
    inst = _instance(GENERIC, 0, n, colors)
    status, detail, dim = _trivial_status("zariski-dense", n,
                                          lambda: dimension(0, n, colors, GENERIC))
    if status:
        return Certificate("zariski-dense", inst, status, detail)
    if n == 4:
        return _certify_base(colors, inst, dim)
    return _certify_step(colors, inst, recurse)


def _certify_base(colors: tuple, inst: dict, dim: int) -> Certificate:
    a, b, c, d = colors
    irreducible = certify_four_punctures(colors, GENERIC)

    # every cross-basis matrix entry has a tetrahedron symbol as numerator;
    # their nonvanishing over Q(A) is what lets the two twists interact
    i_set = middle_colors(a, b, c, d, GENERIC)
    j_set = middle_colors(a, d, c, b, GENERIC)
    entries = []
    all_nonzero = True
    for i in i_set:
        for j in j_set:
            nonzero, report = tet_nonzero_generic(a, b, i, c, d, j)
            all_nonzero = all_nonzero and nonzero
            entries.append({
                "frame": [a, b, i, c, d, j],
                "scalar": report["value"],
                "summand_degrees": report["summand_degrees"],
                "max_degree_unique": report["max_degree_unique"],
            })
    tet_check = CheckRecord(
        "tet-nonvanishing",
        PASSED if entries and all_nonzero else CHECK_FAILED,
        {"kind": "nonzero_scalars", "entries": entries},
    )

    # middle colors ascend in steps of 2, so consecutive eigenvalue ratios
    # are exactly the -A^(4i+8) monomials
    ratios = [{"i": i_set[t], "exponent": 4 * i_set[t] + 8,
               "value": infinite_order_ratio(i_set[t]).to_json()}
              for t in range(len(i_set) - 1)]
    ratio_check = CheckRecord(
        "twist-ratio-infinite-order",
        PASSED if ratios and all(r["exponent"] != 0 for r in ratios) else CHECK_FAILED,
        {"kind": "monomial_order", "ratios": ratios},
    )

    analysis = weight_scalar_analysis([i * (i + 2) for i in i_set])
    weight_check = CheckRecord(
        "twist-weights-force-full-group",
        PASSED if analysis["verdict"] == f"SL_FULL({dim})" else CHECK_FAILED,
        dict(analysis, kind="weight_analysis"),
    )

    return _node("zariski-dense", inst,
                 "four-puncture base case: irreducible, with an infinite-order "
                 "twist whose weights force the full special linear group",
                 (tet_check, ratio_check, weight_check), (irreducible,))


def _certify_step(colors: tuple, inst: dict, recurse) -> Certificate:
    n = len(colors)
    srt = tuple(sorted(colors))
    checks = [CheckRecord(
        "colors-sorted",
        PASSED,
        {"kind": "sorted_colors", "from": list(colors), "to": list(srt)},
    )]

    # fuse the two smallest punctures; their channels index the summands of
    # the restriction to braids fixing the fused strand
    c0, c1 = srt[0], srt[1]
    rest = srt[2:]
    entries = []
    realized = []
    for a in range(abs(c0 - c1), c0 + c1 + 1, 2):
        d = dimension(0, n - 1, (a,) + rest, GENERIC)
        entries.append({"g": 0, "b": n - 1, "colors": [a] + list(rest), "value": d})
        if d > 0:
            realized.append((a, d))

    ok, wit = dimension_conditions([d for _, d in realized])
    checks.append(CheckRecord(
        "summand-dimension-conditions",
        PASSED if ok else CHECK_FAILED,
        {"kind": "dimension_list", "ring": _ring_json(GENERIC),
         "entries": entries, "ones": wit["ones"], "twos": wit["twos"]},
    ))

    children = [noniso_check(rest, a_values=[a for a, _ in realized])]
    children += recurse([(a,) + rest for a, _ in realized])
    return _node("zariski-dense", inst,
                 "restriction to the fused two smallest punctures splits into "
                 "pairwise-distinct summands, each dense or small; density of "
                 "the whole image follows by assembling the simple factors",
                 checks, children)


# ---------------------------------------------------------------------------
# Replay handlers for the witness kinds introduced here.
# ---------------------------------------------------------------------------


def _replay_monomial_order(wit: dict) -> str:
    if not wit["ratios"]:
        return CHECK_FAILED
    for r in wit["ratios"]:
        if r["exponent"] == 0 or scalar_from_json(r["value"]).is_zero():
            return CHECK_FAILED
    return PASSED


def _replay_weight_analysis(wit: dict) -> str:
    fresh = weight_scalar_analysis(wit["weights"])
    if fresh["verdict"] != wit["verdict"]:
        return CHECK_FAILED
    return PASSED if fresh["verdict"].startswith("SL_FULL") else CHECK_FAILED


def _replay_exponent_separation(wit: dict) -> str:
    fixed = tuple(wit["fixed_colors"])
    stored = {s["a"]: tuple(s["exponents"]) for s in wit["sets"]}
    for a, exps in stored.items():
        if eigenvalue_set(a, fixed).exponents != exps:
            return CHECK_FAILED
    for rec in wit["pairs"]:
        how, _ = _separation(stored[rec["a"]], stored[rec["a2"]])
        if how is None:
            return CHECK_FAILED
    return PASSED


register_replay_kind("monomial_order", _replay_monomial_order)
register_replay_kind("weight_analysis", _replay_weight_analysis)
register_replay_kind("exponent_separation", _replay_exponent_separation)

"""Command-line front end: every computation and certificate as a verb.

Outputs are exact; JSON artifacts carry a schema version header and are
byte-identical across runs with the same configuration (keys sorted, no
floating point anywhere).  Exit codes: 0 on success or a certified claim,
1 on a FAILED certificate, 2 on usage errors and violated bounds, 3 on
NOT_APPLICABLE or VACUOUS verdicts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import product

from .certificates import (
    CERTIFIED,
    CERTIFIED_MODULO_ASSUMPTION,
    DEFAULT_MAX_DEPTH,
    FAILED,
    NOT_APPLICABLE,
    VACUOUS,
    _ring_json,
    _root_node,
    certify_irreducible,
    replay_certificate,
    to_canonical_json,
)
from .density import certify_density
from .recoupling import fusion_matrix, sixj, tet, theta
from .scalars import GENERIC, RingSpec, quantum_integer, root_of_unity
from .spaces import dimension, enumerate_colorings, graph_from_json, standard_graph
from .tl import DEFAULT_STRAND_BOUND as DEFAULT_MAX_STRANDS
from .tl import (
    _NETWORK_ROWS,
    diagram_from_json,
    evaluate_network,
    network_from_json,
    resolve_bracket,
)
from .twists import edge_twist_matrix, interval_twist_matrix, pure_braid_twist

RESULT_SCHEMA = "skeinrep.result/1"

DEFAULT_MAX_COLORS = 12

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_INAPPLICABLE = 3

class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Argument plumbing.
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p", type=int, default=None,
                   help="odd prime level; scalars live in Q(zeta_4p)")
    p.add_argument("--generic", action="store_true",
                   help="work over Q(A) with A transcendental (default)")
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.add_argument("--json", action="store_const", dest="format", const="json",
                   help="shorthand for --format json")
    p.add_argument("--out", default=None,
                   help="write the artifact to this path (relative paths land in "
                        "$SKEINREP_OUTPUT_DIR when set) instead of stdout")
    p.add_argument("--max-colors", type=int, default=DEFAULT_MAX_COLORS)
    p.add_argument("--max-strands", type=int, default=DEFAULT_MAX_STRANDS)
    p.add_argument("--max-depth", type=int, default=DEFAULT_MAX_DEPTH)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skeinrep",
        description="exact recoupling computations and machine-checkable certificates",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("qint", help="quantum integer [i]")
    p.add_argument("--i", type=int, required=True)
    _add_common(p)

    for verb, helptext in (("theta", "theta network value, colors a,b,c"),
                           ("tet", "tetrahedron symbol, colors a,b,i,c,d,j"),
                           ("sixj", "6j change-of-basis coefficient, colors a,b,i,c,d,j"),
                           ("fmatrix", "fusion matrix of the four-holed sphere, colors a,b,c,d")):
        p = sub.add_parser(verb, help=helptext)
        p.add_argument("--colors", required=True)
        _add_common(p)

    p = sub.add_parser("dim", help="dimension of a representation space")
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--colors", default="")
    p.add_argument("--graph", default=None,
                   help="JSON graph file for a non-canonical basis")
    _add_common(p)

    p = sub.add_parser("colorings", help="enumerate the admissible-coloring basis")
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--colors", default="")
    p.add_argument("--graph", default=None)
    _add_common(p)

    p = sub.add_parser("twist", help="exact Dehn-twist matrix")
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--colors", required=True)
    p.add_argument("--edge", type=int, default=None,
                   help="twist transverse to this edge of the standard graph")
    p.add_argument("--pair", default=None,
                   help="i,j: twist about a curve enclosing punctures i and j (1-based)")
    p.add_argument("--interval", default=None,
                   help="lo,hi: twist about the round curve enclosing punctures lo..hi")
    p.add_argument("--inverse", action="store_true")
    _add_common(p)

    p = sub.add_parser("oracle-eval",
                       help="evaluate a closed diagram or colored network from JSON")
    p.add_argument("--file", default=None, help="input path (default: stdin)")
    _add_common(p)

    p = sub.add_parser("certify", help="emit a certificate")
    csub = p.add_subparsers(dest="claim", required=True)
    irr = csub.add_parser("irr", help="irreducibility at a root of unity")
    irr.add_argument("--g", type=int, required=True)
    irr.add_argument("--b", type=int, required=True)
    irr.add_argument("--colors", default="")
    _add_common(irr)
    dense = csub.add_parser("dense", help="Zariski density over Q(A), genus 0")
    dense.add_argument("--n", type=int, default=None,
                       help="puncture count; must match --colors when given")
    dense.add_argument("--colors", required=True)
    _add_common(dense)

    p = sub.add_parser("sweep", help="batch a verb over all color tuples up to a cap")
    ssub = p.add_subparsers(dest="what", required=True)
    sdim = ssub.add_parser("dim")
    sdim.add_argument("--g", type=int, required=True)
    sdim.add_argument("--b", type=int, required=True)
    sdim.add_argument("--max-color", type=int, required=True)
    _add_common(sdim)
    sirr = ssub.add_parser("certify-irr")
    sirr.add_argument("--g", type=int, required=True)
    sirr.add_argument("--b", type=int, required=True)
    sirr.add_argument("--max-color", type=int, required=True)
    _add_common(sirr)
    sdense = ssub.add_parser("certify-dense")
    sdense.add_argument("--n", type=int, required=True)
    sdense.add_argument("--max-color", type=int, required=True)
    _add_common(sdense)

    p = sub.add_parser("replay", help="re-verify a stored certificate from witnesses")
    p.add_argument("--file", default=None, help="certificate path (default: stdin)")
    _add_common(p)

    return parser


def _parse_colors(text: str) -> tuple:
    if not text:
        return ()
    try:
        colors = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"malformed color list {text!r}: want comma-separated integers")
    if any(c < 0 for c in colors):
        raise UsageError(f"negative color in {text!r}")
    return colors


def _parse_pair(text: str, flag: str) -> tuple:
    parts = _parse_colors(text)
    if len(parts) != 2:
        raise UsageError(f"--{flag} wants two comma-separated integers, got {text!r}")
    return parts


def _check_color_bound(colors, bound: int) -> None:
    for c in colors:
        if c > bound:
            raise UsageError(f"bound max-colors={bound} exceeded: color {c}")


def _ring(args) -> RingSpec:
    if args.p is not None and args.generic:
        raise UsageError("choose one of --p and --generic")
    if args.p is not None:
        try:
            return root_of_unity(args.p)
        except ValueError as e:
            raise UsageError(str(e))
    return GENERIC


def _require_gb(args) -> tuple:
    if args.g is None or args.b is None:
        raise UsageError("this verb needs --g and --b")
    if args.g < 0 or args.b < 0:
        raise UsageError(f"bad surface ({args.g}, {args.b})")
    return args.g, args.b


def _result(verb: str, params: dict, result) -> dict:
    out = {"schema": RESULT_SCHEMA, "verb": verb}
    out.update(params)
    out["result"] = result
    return out


def _load_json_input(path) -> dict:
    try:
        if path is None:
            data = json.load(sys.stdin)
        else:
            with open(path) as fh:
                data = json.load(fh)
    except json.JSONDecodeError as e:
        raise UsageError(f"malformed JSON input: {e}")
    except RecursionError:
        raise UsageError("malformed JSON input: nested too deeply")
    except OSError as e:
        raise UsageError(str(e))
    if not isinstance(data, dict):
        raise UsageError(f"JSON input must be an object, got {type(data).__name__}")
    return data


def _status_exit(status: str) -> int:
    if status in (CERTIFIED, CERTIFIED_MODULO_ASSUMPTION):
        return EXIT_OK
    if status == FAILED:
        return EXIT_FAILED
    if status in (VACUOUS, NOT_APPLICABLE):
        return EXIT_INAPPLICABLE
    return EXIT_FAILED


def _matrix_text(M) -> str:
    lines = []
    if M.col_labels is not None:
        lines.append("cols: " + "  ".join(str(l) for l in M.col_labels))
    for k, row in enumerate(M.rows):
        label = str(M.row_labels[k]) if M.row_labels is not None else str(k)
        lines.append(label + ": " + "  ".join(repr(x) for x in row))
    return "\n".join(lines)


def _matrix_csv(M) -> list:
    header = ["row\\col"] + [str(l) for l in (M.col_labels or range(M.n_cols))]
    rows = [header]
    for k, row in enumerate(M.rows):
        label = str(M.row_labels[k]) if M.row_labels is not None else str(k)
        rows.append([label] + [repr(x) for x in row])
    return rows


# ---------------------------------------------------------------------------
# Verb handlers.  Each returns (payload, text, csv_rows, exit_code).
# ---------------------------------------------------------------------------


def _run_qint(args):
    ring = _ring(args)
    value = quantum_integer(ring, args.i)
    params = dict(_ring_json(ring), i=args.i)
    return _result("qint", params, value.to_json()), repr(value), None, EXIT_OK


_SYMBOL_ARITY = {"theta": (theta, 3), "tet": (tet, 6), "sixj": (sixj, 6)}


def _run_symbol(args):
    fn, arity = _SYMBOL_ARITY[args.verb]
    colors = _parse_colors(args.colors)
    if len(colors) != arity:
        raise UsageError(f"{args.verb} wants {arity} colors, got {len(colors)}")
    _check_color_bound(colors, args.max_colors)
    ring = _ring(args)
    value = fn(*colors, ring)
    params = dict(_ring_json(ring), colors=list(colors))
    return _result(args.verb, params, value.to_json()), repr(value), None, EXIT_OK


def _run_fmatrix(args):
    colors = _parse_colors(args.colors)
    if len(colors) != 4:
        raise UsageError(f"fmatrix wants 4 colors, got {len(colors)}")
    _check_color_bound(colors, args.max_colors)
    ring = _ring(args)
    F = fusion_matrix(*colors, ring)
    params = dict(_ring_json(ring), colors=list(colors))
    return (_result("fmatrix", params, F.to_json()),
            _matrix_text(F), _matrix_csv(F), EXIT_OK)


def _basis_graph(args, colors):
    if args.graph is not None:
        return graph_from_json(_load_json_input(args.graph))
    g, b = _require_gb(args)
    if len(colors) != b:
        raise UsageError(f"expected {b} boundary colors, got {len(colors)}")
    return standard_graph(g, b)


def _run_dim(args):
    colors = _parse_colors(args.colors)
    _check_color_bound(colors, args.max_colors)
    ring = _ring(args)
    if args.graph is not None:
        graph = graph_from_json(_load_json_input(args.graph))
        d = len(enumerate_colorings(graph, colors, ring))
        params = dict(_ring_json(ring), colors=list(colors), graph="custom")
    else:
        g, b = _require_gb(args)
        d = dimension(g, b, colors, ring)
        params = dict(_ring_json(ring), g=g, b=b, colors=list(colors))
    return _result("dim", params, d), str(d), None, EXIT_OK


def _run_colorings(args):
    colors = _parse_colors(args.colors)
    _check_color_bound(colors, args.max_colors)
    ring = _ring(args)
    graph = _basis_graph(args, colors)
    basis = enumerate_colorings(graph, colors, ring)
    result = {
        "edges": [list(e) for e in graph.edges],
        "count": len(basis),
        "colorings": [list(c) for c in basis],
    }
    params = dict(_ring_json(ring), colors=list(colors))
    text = "\n".join(" ".join(str(c) for c in coloring) for coloring in basis) or "(empty)"
    csv_rows = [["edge" + str(k) for k in range(len(graph.edges))]]
    csv_rows += [[str(c) for c in coloring] for coloring in basis]
    return _result("colorings", params, result), text, csv_rows, EXIT_OK


def _run_twist(args):
    colors = _parse_colors(args.colors)
    _check_color_bound(colors, args.max_colors)
    ring = _ring(args)
    chosen = [x for x in (args.edge, args.pair, args.interval) if x is not None]
    if len(chosen) != 1:
        raise UsageError("twist wants exactly one of --edge, --pair, --interval")

    if args.edge is not None:
        g, b = _require_gb(args)
        graph = standard_graph(g, b)
        M = edge_twist_matrix(graph, args.edge, colors, ring, inverse=args.inverse)
        curve = {"edge": args.edge, "g": g, "b": b}
    else:
        n = len(colors)
        if args.g not in (None, 0):
            raise UsageError("--pair/--interval twists act on punctured spheres (g=0)")
        if args.b is not None and args.b != n:
            raise UsageError(f"expected {args.b} boundary colors, got {n}")
        if args.pair is not None:
            i, j = _parse_pair(args.pair, "pair")
            M = pure_braid_twist(n, (i, j), colors, ring)
            if args.inverse:
                M = M.inverse()
            curve = {"pair": [i, j], "g": 0, "b": n}
        else:
            lo, hi = _parse_pair(args.interval, "interval")
            M = interval_twist_matrix(n, lo, hi, colors, ring, inverse=args.inverse)
            curve = {"interval": [lo, hi], "g": 0, "b": n}

    params = dict(_ring_json(ring), colors=list(colors),
                  inverse=args.inverse, **curve)
    return (_result("twist", params, M.to_json()),
            _matrix_text(M), _matrix_csv(M), EXIT_OK)


def _run_oracle_eval(args):
    data = _load_json_input(args.file)
    rows = data.get("rows")
    if not isinstance(rows, list):
        raise UsageError('oracle input wants {"rows": [...]}')
    ring = _ring(args)
    kinds = {row[0] for row in rows if isinstance(row, list) and row and isinstance(row[0], str)}
    if not kinds.isdisjoint(_NETWORK_ROWS):
        value = evaluate_network(network_from_json(data), ring,
                                 max_strands=args.max_strands)
        input_kind = "network"
    else:
        value = resolve_bracket(diagram_from_json(data), ring)
        input_kind = "diagram"
    params = dict(_ring_json(ring), input_kind=input_kind, rows=len(rows))
    return (_result("oracle-eval", params, value.to_json()),
            repr(value), None, EXIT_OK)


def _cert_text(doc: dict) -> str:
    root = _root_node(doc)
    lines = [f"{root['claim']} {root['instance']} -> {root['status']}"]
    if root.get("detail"):
        lines.append(f"  {root['detail']}")
    for assumption in root.get("assumptions", ()):
        lines.append(f"  assumes: {assumption}")
    return "\n".join(lines)


def _run_certify(args):
    if args.claim == "irr":
        if args.p is None:
            raise UsageError("certify irr requires --p (root-of-unity mode)")
        ring = _ring(args)
        colors = _parse_colors(args.colors)
        _check_color_bound(colors, args.max_colors)
        cert = certify_irreducible(args.p, args.g, args.b, colors,
                                   max_depth=args.max_depth)
    else:
        if args.p is not None:
            raise UsageError("certify dense requires generic mode, not --p")
        colors = _parse_colors(args.colors)
        if args.n is not None and args.n != len(colors):
            raise UsageError(f"--n {args.n} disagrees with {len(colors)} colors")
        _check_color_bound(colors, args.max_colors)
        cert = certify_density(colors, max_depth=args.max_depth)
    doc = cert.to_json()
    return doc, _cert_text(doc), None, _status_exit(cert.status)


def _run_sweep(args):
    rows = []
    summary: dict = {}
    worst = EXIT_OK
    if args.max_color > args.max_colors:
        raise UsageError(
            f"bound max-colors={args.max_colors} exceeded: --max-color {args.max_color}")
    palette = range(args.max_color + 1)

    if args.what == "dim":
        ring = _ring(args)
        for colors in product(palette, repeat=args.b):
            d = dimension(args.g, args.b, colors, ring)
            rows.append({"colors": list(colors), "dim": d})
        params = dict(_ring_json(ring), g=args.g, b=args.b,
                      max_color=args.max_color)
        csv_rows = [["colors", "dim"]]
        csv_rows += [[" ".join(str(c) for c in r["colors"]), str(r["dim"])] for r in rows]
        text = "\n".join(f"{tuple(r['colors'])}: {r['dim']}" for r in rows) or "(empty)"
    else:
        if args.what == "certify-irr":
            if args.p is None:
                raise UsageError("sweep certify-irr requires --p")
            ring = _ring(args)
            instances = product(palette, repeat=args.b)
            run = lambda colors: certify_irreducible(
                args.p, args.g, args.b, colors, max_depth=args.max_depth)
            params = dict(_ring_json(ring), g=args.g, b=args.b,
                          max_color=args.max_color)
        else:
            if args.p is not None:
                raise UsageError("sweep certify-dense requires generic mode, not --p")
            instances = product(palette, repeat=args.n)
            run = lambda colors: certify_density(colors, max_depth=args.max_depth)
            params = {"mode": "generic", "p": None, "n": args.n,
                      "max_color": args.max_color}
        for colors in instances:
            cert = run(colors)
            rows.append({"colors": list(colors), "status": cert.status})
            summary[cert.status] = summary.get(cert.status, 0) + 1
            if cert.status == FAILED:
                worst = EXIT_FAILED
        csv_rows = [["colors", "status"]]
        csv_rows += [[" ".join(str(c) for c in r["colors"]), r["status"]] for r in rows]
        text = "\n".join(f"{tuple(r['colors'])}: {r['status']}" for r in rows) or "(empty)"

    result = {"rows": rows}
    if summary:
        result["summary"] = summary
        text += "\n" + " ".join(f"{k}={v}" for k, v in sorted(summary.items()))
    payload = _result("sweep", dict(params, what=args.what), result)
    return payload, text, csv_rows, worst


def _run_replay(args):
    doc = _load_json_input(args.file)
    try:
        status, problems = replay_certificate(doc)
        root = _root_node(doc)
        stored = root.get("status")
    except (KeyError, TypeError, AttributeError, RecursionError) as e:
        raise UsageError(f"malformed certificate: {type(e).__name__}: {e}")
    payload = _result("replay", {"stored_status": stored}, {
        "status": status,
        "problems": problems,
        "match": status == stored and not problems,
    })
    lines = [f"replayed {root.get('claim', '?')} -> {status} (stored {stored})"]
    lines += [f"  problem: {p}" for p in problems]
    code = EXIT_FAILED if problems else _status_exit(status)
    return payload, "\n".join(lines), None, code


_HANDLERS = {
    "qint": _run_qint,
    "theta": _run_symbol,
    "tet": _run_symbol,
    "sixj": _run_symbol,
    "fmatrix": _run_fmatrix,
    "dim": _run_dim,
    "colorings": _run_colorings,
    "twist": _run_twist,
    "oracle-eval": _run_oracle_eval,
    "certify": _run_certify,
    "sweep": _run_sweep,
    "replay": _run_replay,
}


# ---------------------------------------------------------------------------
# Output plumbing and entry point.
# ---------------------------------------------------------------------------


def _emit(args, payload: dict, text: str, csv_rows) -> None:
    if args.format == "json":
        body = to_canonical_json(payload)
    elif args.format == "csv":
        if csv_rows is None:
            raise UsageError(f"csv output is not defined for this verb")
        body = "\n".join(",".join(field for field in row) for row in csv_rows) + "\n"
    else:
        body = text if text.endswith("\n") else text + "\n"

    path = args.out
    if path is None:
        sys.stdout.write(body)
        return
    if not os.path.isabs(path):
        base = os.environ.get("SKEINREP_OUTPUT_DIR")
        if base:
            path = os.path.join(base, path)
    with open(path, "w") as fh:
        # 1 MiB slices, so the encoder never holds a bytes copy of the whole artifact
        for start in range(0, len(body), 1 << 20):
            fh.write(body[start:start + (1 << 20)])
    print(path)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.max_colors <= 0 or args.max_strands <= 0 or args.max_depth <= 0:
        print("error: bounds must be positive", file=sys.stderr)
        return EXIT_USAGE
    try:
        payload, text, csv_rows, code = _HANDLERS[args.verb](args)
        _emit(args, payload, text, csv_rows)
        return code
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

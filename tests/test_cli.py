"""Command-line interface: output formats, exit codes, determinism."""

import json

import pytest
from certtables import expand

from skeinrep.cli import main
from skeinrep.scalars import scalar_from_json
from skeinrep.tl import theta_network


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_qint_text_and_json(capsys):
    code, out, _ = run(capsys, "qint", "--p", "5", "--i", "5")
    assert code == 0
    assert "0" in out  # [5] vanishes at p = 5
    code, out, _ = run(capsys, "qint", "--p", "5", "--i", "5", "--json")
    payload = json.loads(out)
    assert payload["schema"] == "skeinrep.result/1"
    assert payload["verb"] == "qint"
    assert scalar_from_json(payload["result"]).is_zero()


def test_dim_golden(capsys):
    code, out, _ = run(capsys, "dim", "--p", "7", "--g", "0", "--b", "4",
                       "--colors", "1,1,3,3")
    assert code == 0 and out.strip() == "2"


def test_theta_golden(capsys):
    code, out, _ = run(capsys, "theta", "--generic", "--colors", "1,1,2")
    assert code == 0 and out.strip() == "A^4 + 1 + A^-4"


def test_sixj_golden(capsys):
    code, out, _ = run(capsys, "sixj", "--generic", "--colors", "1,1,2,1,1,2")
    assert code == 0 and out.strip() == "(A^2)/(A^4 + 1)"


def test_fmatrix_json(capsys):
    code, out, _ = run(capsys, "fmatrix", "--generic", "--colors", "1,1,1,1", "--json")
    assert code == 0
    payload = json.loads(out)
    M = payload["result"]
    assert M["n_rows"] == 2 and M["n_cols"] == 2
    assert M["row_labels"] == [0, 2]


def test_colorings(capsys):
    code, out, _ = run(capsys, "colorings", "--p", "7", "--g", "0", "--b", "4",
                       "--colors", "1,1,3,3", "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["count"] == 2
    assert result["colorings"] == [[0, 1, 1, 3, 3], [2, 1, 1, 3, 3]]


def test_twist_verbs_agree(capsys):
    common = ("--generic", "--g", "0", "--b", "4", "--colors", "1,1,1,1", "--json")
    code, out_pair, _ = run(capsys, "twist", *common, "--pair", "2,3")
    assert code == 0
    code, out_int, _ = run(capsys, "twist", *common, "--interval", "2,3")
    assert code == 0
    assert json.loads(out_pair)["result"] == json.loads(out_int)["result"]


def test_twist_inverse_flag(capsys):
    common = ("--generic", "--g", "0", "--b", "4", "--colors", "1,1,1,1", "--json")
    _, out, _ = run(capsys, "twist", *common, "--pair", "1,2")
    _, out_inv, _ = run(capsys, "twist", *common, "--pair", "1,2", "--inverse")
    assert json.loads(out)["result"] != json.loads(out_inv)["result"]


def test_oracle_eval_matches_theta(capsys, tmp_path):
    net = theta_network(1, 1, 2)
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(net.to_json()))
    code, out, _ = run(capsys, "oracle-eval", "--generic", "--file", str(path), "--json")
    assert code == 0
    value = json.loads(out)["result"]
    _, theta_out, _ = run(capsys, "theta", "--generic", "--colors", "1,1,2", "--json")
    assert scalar_from_json(value) == scalar_from_json(json.loads(theta_out)["result"])


def test_certify_irr(capsys):
    code, out, _ = run(capsys, "certify", "irr", "--p", "5", "--g", "0", "--b", "4",
                       "--colors", "1,1,1,1", "--json")
    assert code == 0
    doc = json.loads(out)  # certificates are emitted bare, they carry their own schema
    assert doc["schema"] == "skeinrep.certificate/2"
    assert expand(doc)["status"] == "CERTIFIED"
    # dimension-1 space: nothing to certify, distinct exit code
    code, _, _ = run(capsys, "certify", "irr", "--p", "5", "--g", "0", "--b", "4",
                     "--colors", "1,1,3,3")
    assert code == 3


def test_certify_dense(capsys):
    code, out, _ = run(capsys, "certify", "dense", "--generic",
                       "--colors", "1,1,1,1,2", "--json")
    assert code == 0
    doc = expand(json.loads(out))
    assert doc["status"] == "CERTIFIED"
    code, _, _ = run(capsys, "certify", "dense", "--colors", "1,2,3,4,5")
    assert code == 3  # vacuous


def test_mode_flags_enforced(capsys):
    code, _, err = run(capsys, "certify", "irr", "--generic", "--g", "0", "--b", "4",
                       "--colors", "1,1,1,1")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "certify", "dense", "--p", "5", "--colors", "1,1,1,1")
    assert code == 2 and "generic" in err


def test_usage_errors(capsys):
    code, _, err = run(capsys, "theta", "--generic", "--colors", "1,1")
    assert code == 2
    code, _, err = run(capsys, "theta", "--generic", "--colors", "1,x,2")
    assert code == 2
    code, _, err = run(capsys, "theta", "--generic", "--colors", "1,1,99")
    assert code == 2 and "max-colors" in err


def test_malformed_oracle_and_graph_input(capsys, tmp_path):
    # bad shapes and non-int fields are usage errors with a message, never a
    # traceback or the FAILED exit code
    path = tmp_path / "input.json"
    oracle = ("oracle-eval", "--file", str(path))
    graph = ("dim", "--graph", str(path), "--p", "5", "--colors", "2")
    cases = (
        (oracle, {"rows": [5]}),
        (oracle, {"rows": [["cup", "x"]]}),
        (oracle, {"rows": [["proj", 0, "x"]]}),
        (oracle + ("--generic",), {"rows": [["cupnest", 0, 1.5], ["capnest", 0, 1.5]]}),
        (graph, {"vertices": 2}),
        (graph, {"vertices": "a", "edges": [], "boundary_order": []}),
        (graph, {"vertices": 2, "edges": [[0, "1"], [0, 0]], "boundary_order": [1]}),
        (graph, {"vertices": 2, "edges": [[0, 1], [0, 0]], "boundary_order": 1}),
    )
    for argv, data in cases:
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error: "), (data, err)
    # the well-formed graph of the last two cases
    path.write_text(json.dumps({"vertices": 2, "edges": [[0, 1], [0, 0]],
                                "boundary_order": [1]}))
    code, out, _ = run(capsys, *graph)
    assert code == 0 and out.strip() == "3"


def test_deeply_nested_json_input_is_a_usage_error(capsys, tmp_path):
    # json.load raises RecursionError past the interpreter's depth limit;
    # that is bad input (exit 2), not a failed verdict (exit 1)
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    for argv in (("replay", "--file", str(path)),
                 ("oracle-eval", "--generic", "--file", str(path))):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error: ") and "Traceback" not in err, (argv, err)


def test_certify_max_depth(capsys):
    code, _, err = run(capsys, "certify", "dense", "--colors", "1,2,2,3,3,3", "--max-depth", "1")
    assert code == 2 and "induction depth exceeds max_depth=1" in err
    code, _, _ = run(capsys, "certify", "dense", "--colors", "1,2,2,3,3,3", "--max-depth", "2")
    assert code == 0


def test_mode_defaults_to_generic(capsys):
    code, out, _ = run(capsys, "qint", "--i", "3")
    assert code == 0 and out.strip() == "A^4 + 1 + A^-4"


def test_replay_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "certify", "irr", "--p", "5", "--g", "0", "--b", "5",
                       "--colors", "1,1,1,1,2", "--json")
    clean = out
    doc = expand(json.loads(out))
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "replay", "--file", str(path))
    assert code == 0

    doc["status"] = "FAILED"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "replay", "--file", str(path))
    assert code == 1

    # malformed documents are usage errors (exit 2) with a message, not
    # uncaught exceptions or the FAILED exit code
    doc["status"] = "CERTIFIED"
    witness = doc["children"][3]["checks"][0]["witness"]
    malformed = []
    del witness["values"]
    malformed.append((json.dumps(doc), "KeyError: 'values'"))
    doc["children"][3]["checks"][0]["witness"] = "values"
    malformed.append((json.dumps(doc), "malformed certificate"))
    malformed.append((json.dumps([doc]), "must be an object, got list"))
    # a zero denominator in a serialized scalar, in either mode
    code, out, _ = run(capsys, "certify", "dense", "--colors", "1,2,2,3,3,3", "--json")
    dense = json.loads(out)
    scalar = _first_witness_scalar(dense, "generic")
    for zero in ({"0": "0"}, {}):
        scalar["denominator"] = zero
        malformed.append((json.dumps(dense), "zero denominator"))
    code, out, _ = run(capsys, "certify", "irr", "--p", "5", "--g", "0", "--b", "4",
                       "--colors", "1,1,1,1", "--json")
    irr = json.loads(out)
    _first_witness_scalar(irr, "root_of_unity")["coefficients"][0] = "1/0"
    malformed.append((json.dumps(irr), "zero denominator"))
    for text, message in malformed:
        path.write_text(text)
        code, out, err = run(capsys, "replay", "--file", str(path))
        assert code == 2
        assert message in err

    # shapes that replay's subtree keys cannot take or must keep apart: each
    # keeps the exit code of replaying every node, and none is a traceback
    def edited(edit):
        doc = expand(json.loads(clean))
        assert doc["children"][0]["status"] == "VACUOUS"
        assert doc["checks"][1]["witness"]["kind"] == "chain"
        edit(doc)
        return json.dumps(doc)

    def nested_list(doc):
        doc["children"][3]["children"] = [[]]

    def float_channel(doc):
        channels = doc["children"][3]["checks"][0]["witness"]["channels"]
        channels[0] = float(channels[0])

    def float_via(doc):
        pair = doc["checks"][1]["witness"]["pairs"][0]
        pair["via"] = float(pair["via"])

    cases = (
        (lambda doc: doc.update(children="x"), 2, "malformed certificate: AttributeError"),
        (lambda doc: doc.update(children=[1]), 2, "malformed certificate: AttributeError"),
        (nested_list, 2, "malformed certificate: AttributeError"),
        (float_channel, 2, "malformed certificate: TypeError"),
        # a VACUOUS node's children are never read, and 1.0 == 1 where it is
        (lambda doc: doc["children"][0].update(children="x"), 0, ""),
        (float_via, 0, ""),
    )
    for edit, want, message in cases:
        path.write_text(edited(edit))
        code, out, err = run(capsys, "replay", "--file", str(path))
        assert (code, message in err) == (want, True), err
        assert "Traceback" not in err


def _deep_chain(doc):
    doc["nodes"] = {f"n{k}": {"status": "CERTIFIED", "children": [f"n{k + 1}"]}
                    for k in range(5000)}
    doc["nodes"]["n5000"] = {"status": "CERTIFIED"}
    doc["root"] = "n0"


def test_replay_table_shapes(capsys, tmp_path):
    code, out, _ = run(capsys, "certify", "irr", "--p", "5", "--g", "0", "--b", "5",
                       "--colors", "1,1,1,1,2", "--json")
    clean, path = out, tmp_path / "cert.json"
    path.write_text(clean)
    code, out, _ = run(capsys, "replay", "--file", str(path))
    assert code == 0 and out.startswith("replayed irreducible -> CERTIFIED (stored CERTIFIED)")

    def edited(edit):
        doc = json.loads(clean)
        edit(doc)
        return json.dumps(doc)

    spare = "f" * 64
    cases = (
        # references that do not resolve, or reach a node the root cannot
        (lambda doc: doc["nodes"][doc["root"]]["children"].append(spare), 1,
         f"no node {spare} in the table"),
        (lambda doc: doc["nodes"].update({spare: doc["nodes"][doc["root"]]}), 1,
         f"node {spare} is not reachable from the root"),
        # a table of the wrong shape is a usage error
        (lambda doc: doc.update(nodes=list(doc["nodes"].values())), 2,
         "error: malformed certificate: TypeError: a certificate/2 document needs a string "
         "root and an object of nodes"),
        (lambda doc: doc.update(root=7), 2, "error: malformed certificate: TypeError"),
        (lambda doc: doc.pop("nodes"), 2, "error: malformed certificate: KeyError: 'nodes'"),
        # a chain of references deeper than the interpreter's recursion limit
        (_deep_chain, 2, "error: malformed certificate: RecursionError"),
    )
    for edit, want, message in cases:
        path.write_text(edited(edit))
        code, out, err = run(capsys, "replay", "--file", str(path))
        assert code == want and message in out + err, (out, err)
        assert "Traceback" not in err


def _first_witness_scalar(doc, mode):
    """The first serialized scalar of the given mode inside a check witness."""
    stack = [(doc, False)]
    while stack:
        node, in_witness = stack.pop()
        if isinstance(node, dict):
            if in_witness and node.get("mode") == mode and "coefficients" in node:
                return node
            stack.extend((v, in_witness or k == "witness") for k, v in reversed(node.items()))
        elif isinstance(node, list):
            stack.extend((v, in_witness) for v in reversed(node))
    raise AssertionError(f"no {mode} witness scalar")


def test_sweep_dim_csv(capsys):
    code, out, _ = run(capsys, "sweep", "dim", "--p", "5", "--g", "0", "--b", "3",
                       "--max-color", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9  # header plus 2^3 rows
    assert lines[0].split(",")[0] == "colors" or "colors" in lines[0]


def test_sweep_certify_dense(capsys):
    code, out, _ = run(capsys, "sweep", "certify-dense", "--generic", "--n", "4",
                       "--max-color", "1")
    assert code == 0
    assert "CERTIFIED" in out


def test_sweep_determinism(capsys):
    args = ("sweep", "dim", "--p", "5", "--g", "0", "--b", "3", "--max-color", "2", "--json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_out_file_and_env_dir(capsys, tmp_path, monkeypatch):
    target = tmp_path / "res.json"
    code, out, _ = run(capsys, "dim", "--p", "7", "--g", "0", "--b", "4",
                       "--colors", "1,1,3,3", "--json", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["result"] == 2

    monkeypatch.setenv("SKEINREP_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run(capsys, "dim", "--p", "7", "--g", "0", "--b", "4",
                       "--colors", "1,1,3,3", "--json", "--out", "rel.json")
    assert code == 0
    assert (tmp_path / "rel.json").exists()


def test_unknown_verb(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2

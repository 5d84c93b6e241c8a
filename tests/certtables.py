"""Test oracle for certificate tables: the ``skeinrep.certificate/1`` tree
that a ``skeinrep.certificate/2`` node table stands for."""

import json

from skeinrep.certificates import TREE_SCHEMA


def expand(doc: dict) -> dict:
    """The ``/1`` tree of the ``/2`` table `doc`: each node carries
    ``"schema": "skeinrep.certificate/1"`` and holds its children in place
    of their ids.  No object is shared between nodes, as in a tree loaded
    from an artifact: each occurrence is decoded afresh from its node's
    text.  A ``children`` that is not a list is kept as it is."""
    nodes, texts = doc["nodes"], {}

    def node(nid):
        entry = nodes[nid]
        children = entry.get("children")
        if nid not in texts:
            texts[nid] = json.dumps(dict(entry, children=[]) if isinstance(children, list)
                                    else entry)
        tree = {"schema": TREE_SCHEMA, **json.loads(texts[nid])}
        if isinstance(children, list):
            tree["children"] = [node(child) for child in children]
        return tree

    return node(doc["root"])


def tree_nodes(doc: dict) -> list:
    """Every node of the ``/1`` tree `doc`, one entry per occurrence."""
    nodes, stack = [], [doc]
    while stack:
        nodes.append(stack.pop())
        stack.extend(nodes[-1]["children"])
    return nodes

"""Regenerate perfbench/inputs/ and perfbench/digests.json, cross-checked.

Usage, from the root of a checkout:

    python3 perfbench/record_digests.py

Writes the two tet networks the oracle jobs evaluate, runs every job of
every workload whose check is "digest", and records the SHA-256 of each
artifact.  Before writing, it checks the values with identities that do
not depend on the code paths being pinned:

- the reverse round trip F(5,5,5,5) * F(5,5,5,5) = I, since the reverse of
  the fusion matrix F(a,b,c,d) is F(a,d,c,b);
- each network-oracle value equals the closed-form tet symbol.

Run it only when an output is meant to change, and say why in the change.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

import worker
from workloads import WORKLOADS, artifact_names

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NETWORKS = {"tet_3_3_2_3_3_2.json": (3, 3, 2, 3, 3, 2),
            "tet_2_2_4_2_2_4.json": (2, 2, 4, 2, 2, 4)}


def main() -> int:
    skeinrep = worker.import_skeinrep(ROOT)
    from skeinrep import GENERIC, fusion_matrix, tet_network

    inputs = os.path.join(HERE, "inputs")
    os.makedirs(inputs, exist_ok=True)
    for name, colors in NETWORKS.items():
        with open(os.path.join(inputs, name), "w") as fh:
            json.dump(tet_network(*colors).to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    F = fusion_matrix(5, 5, 5, 5, GENERIC)
    if not (F * F).is_identity():
        print("error: F(5,5,5,5) * F(5,5,5,5) is not the identity", file=sys.stderr)
        return 1

    run_dir = os.path.join(ROOT, ".perfbench_out", "record-digests")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    digests = {}
    try:
        for workload, jobs in WORKLOADS.items():
            pinned = [job for job in jobs if job.check == "digest"]
            if not pinned:
                continue
            names = artifact_names(workload, 0)
            records = worker.run_jobs(skeinrep, pinned, names, run_dir, inputs)
            results = {}
            for job, rec in zip(pinned, records):
                if rec.get("exit") != 0:
                    print(f"error: {job.id} failed: {rec.get('error', rec.get('exit'))}",
                          file=sys.stderr)
                    return 1
                with open(rec["out"], "rb") as fh:
                    body = fh.read()
                digests[job.id] = hashlib.sha256(body).hexdigest()
                results[job.id] = json.loads(body)["result"]
            for job in pinned:
                if job.equals and results[job.id] != results[job.equals]:
                    print(f"error: {job.id} differs from {job.equals}", file=sys.stderr)
                    return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    with open(os.path.join(HERE, "digests.json"), "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests; F*F = I and oracle = tet hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())

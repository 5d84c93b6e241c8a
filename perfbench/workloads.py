"""The benchmark's workloads: fixed lists of skeinrep CLI jobs.

A job is one `skeinrep` verb run through `skeinrep.cli.main` with
`--json --out FILE`, so its artifact is written to a file.  Every job names the check its output must pass:

- ``status``: a certificate whose verdict must be ``expect``; the replay job
  that names it as ``source`` reads the verdict back;
- ``replay``: a replay result; it must match, with no problems, and both the
  stored and the replayed status must be the source certificate's ``expect``;
- ``digest``: a matrix or scalar result; its bytes must hash to the SHA-256
  recorded in ``digests.json`` under the job's id.

``equals`` names another job whose ``result`` field this job's must equal
(an oracle value against the closed-form symbol).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CERTIFIED = "CERTIFIED"
CERTIFIED_MODULO_ASSUMPTION = "CERTIFIED_MODULO_ASSUMPTION"

# Which end-to-end sum a job's time counts in; jobs of other kinds count
# only in wall_s.
CATEGORY_OF_KIND = {
    "certify": "certify_s",
    "replay": "replay_s",
    "fmatrix": "matrix_s",
    "twist": "matrix_s",
    "oracle-eval": "oracle_s",
}


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple        # CLI arguments; "{in}" is filled per run
    check: str         # "status", "replay" or "digest"
    expect: str = ""   # verdict of a "status" job
    source: str = ""   # job id whose artifact is the "{in}" file
    input_file: str = ""  # file under perfbench/inputs used as "{in}"
    equals: str = ""   # job id whose "result" this job's must equal

    @property
    def kind(self) -> str:
        return self.argv[0]


def _irr(job_id, p, g, b, colors=""):
    argv = ("certify", "irr", "--p", str(p), "--g", str(g), "--b", str(b))
    if colors:
        argv += ("--colors", colors)
    return Job(job_id, argv, "status", CERTIFIED_MODULO_ASSUMPTION)


def _replay(job_id, source):
    return Job(job_id, ("replay", "--file", "{in}"), "replay", source=source)


WORKLOADS = {
    "rou-certify": (
        _irr("irr-p11-g2", 11, 2, 0),
        _irr("irr-p13-g1-b2", 13, 1, 2, "2,2"),
        _replay("replay-p11-g2", "irr-p11-g2"),
        _replay("replay-p13-g1-b2", "irr-p13-g1-b2"),
    ),
    "generic-matrices": (
        Job("fmatrix-5555", ("fmatrix", "--generic", "--colors", "5,5,5,5"), "digest"),
        Job("twist-pair24", ("twist", "--generic", "--b", "5", "--pair", "2,4",
                             "--colors", "1,2,2,2,3"), "digest"),
        Job("dense-122333", ("certify", "dense", "--colors", "1,2,2,3,3,3"),
            "status", CERTIFIED),
        _replay("replay-dense-122333", "dense-122333"),
        Job("oracle-332332", ("oracle-eval", "--generic", "--file", "{in}"), "digest",
            input_file="tet_3_3_2_3_3_2.json", equals="tet-332332"),
        Job("oracle-224224", ("oracle-eval", "--generic", "--file", "{in}"), "digest",
            input_file="tet_2_2_4_2_2_4.json", equals="tet-224224"),
        Job("tet-332332", ("tet", "--generic", "--colors", "3,3,2,3,3,2"), "digest"),
        Job("tet-224224", ("tet", "--generic", "--colors", "2,2,4,2,2,4"), "digest"),
    ),
    "wide-replay": (
        _irr("irr-p7-g3", 7, 3, 0),
        _irr("irr-p5-g4", 5, 4, 0),
        _replay("replay-p7-g3", "irr-p7-g3"),
        _replay("replay-p5-g4", "irr-p5-g4"),
    ),
}


def artifact_names(workload: str, seed: int) -> dict:
    """Job id -> artifact file name.  The seed only picks the names, so every
    seed runs the same computations and the same seed gives the same argv."""
    rng = random.Random(f"{workload}:{seed}")
    return {job.id: f"{job.id}-{rng.getrandbits(32):08x}.json"
            for job in WORKLOADS[workload]}

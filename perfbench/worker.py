"""One benchmark worker: a fresh interpreter that runs one workload's jobs.

Usage (started by run.py, one worker at a time):

    python3 perfbench/worker.py SPEC.json

SPEC names the repository root, the workload, the run directory for the
artifacts, the monotonic time at which the worker was spawned, whether to
trace, and whether to stop once set-up is done.  The worker imports
skeinrep from `<root>/src`, checks that its caches are cold, runs every job
through `skeinrep.cli.main` one after another, then checks the outputs and
writes `result.json` into the run directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

import speedprobe
from workloads import CATEGORY_OF_KIND, WORKLOADS, artifact_names

COLD_CACHES = (("scalars", "quantum_integer"), ("scalars", "quantum_factorial"),
               ("recoupling", "theta"), ("recoupling", "tet"), ("recoupling", "sixj"),
               ("tl", "jones_wenzl"))


def import_skeinrep(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import skeinrep
    import skeinrep.cli
    where = os.path.dirname(os.path.abspath(skeinrep.__file__))
    if where != os.path.join(os.path.abspath(src), "skeinrep"):
        raise RuntimeError(f"skeinrep imported from {where}, not from {src}")
    return skeinrep


def check_cold(skeinrep) -> None:
    for module, name in COLD_CACHES:
        size = getattr(getattr(skeinrep, module), name).cache_info().currsize
        if size != 0:
            raise RuntimeError(f"{module}.{name} cache holds {size} entries before the first job")


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_jobs(skeinrep, jobs, names: dict, run_dir: str, inputs_dir: str) -> list:
    """Run every job; return one record per job.  Only the main() call is
    timed; an exception is recorded as the job's error."""
    records = []
    for job in jobs:
        source = (os.path.join(inputs_dir, job.input_file) if job.input_file
                  else os.path.join(run_dir, names[job.source]) if job.source else None)
        out = os.path.join(run_dir, names[job.id])
        argv = [source if a == "{in}" else a for a in job.argv] + ["--json", "--out", out]
        rec = {"id": job.id, "kind": job.kind, "out": out}
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                rec["exit"] = skeinrep.cli.main(argv)
        except Exception:  # a crashed job is a failed job, not a crashed run
            rec["error"] = traceback.format_exc(limit=4)
        rec["start"] = t0
        rec["end"] = time.perf_counter()
        records.append(rec)
    return records


def check_jobs(jobs, records: list, digests: dict) -> None:
    """Add a "problems" list to every record; empty means the job passed."""
    by_id = {rec["id"]: rec for rec in records}
    expect = {job.id: job.expect for job in jobs}
    results = {}
    for job in jobs:
        rec = by_id[job.id]
        problems = rec.setdefault("problems", [])
        if "error" in rec:
            problems.append("exception: " + rec["error"].strip().splitlines()[-1])
            continue
        if rec["exit"] != 0:
            problems.append(f"exit code {rec['exit']}")
        if not os.path.exists(rec["out"]):
            problems.append("no artifact written")
            continue
        rec["bytes"] = os.path.getsize(rec["out"])
        rec["sha256"] = sha256_file(rec["out"])
        if job.check == "digest":
            if rec["sha256"] != digests.get(job.id):
                problems.append(f"digest {rec['sha256']} != recorded {digests.get(job.id)}")
            with open(rec["out"]) as fh:
                results[job.id] = json.load(fh)["result"]
        elif job.check == "replay":
            with open(rec["out"]) as fh:
                replay = json.load(fh)
            verdict = expect[job.source]
            got = (replay.get("stored_status"), replay["result"]["status"],
                   replay["result"]["problems"], replay["result"]["match"])
            if got != (verdict, verdict, [], True):
                problems.append(f"replay (stored, replayed, problems, match) = {got}")
            # The certificate's verdict is read back through its replay.
            if replay.get("stored_status") != verdict:
                by_id[job.source].setdefault("problems", []).append(
                    f"status {replay.get('stored_status')} != {verdict}")
    for job in jobs:
        if job.equals and job.id in results and results.get(job.id) != results.get(job.equals):
            by_id[job.id]["problems"].append(f"result differs from {job.equals}")


def count_nodes(paths: list) -> tuple:
    """(nodes emitted, distinct subtrees) over certificate trees."""
    emitted = 0
    seen = set()

    def digest(node) -> str:
        nonlocal emitted
        emitted += 1
        kids = [digest(child) for child in node.get("children", ())]
        body = {k: v for k, v in node.items() if k != "children"}
        d = hashlib.sha256(json.dumps([body, kids], sort_keys=True).encode()).hexdigest()
        seen.add(d)
        return d

    for path in paths:
        with open(path) as fh:
            digest(json.load(fh))
    return emitted, len(seen)


def layer_metrics(tracer, names: list) -> dict:
    totals = tracer.totals()
    zero = {"calls": 0, "self_s": 0.0}
    out = {}
    for name in names:
        t = totals.get(name, zero)
        out[name] = {"calls": t["calls"], "self_s": t["self_s"]}
        if name in tracer.cached:
            out[name]["cache_hit_ratio"] = tracer.cache_hit_ratio(name)
        if name in tracer.distinct:
            out[name]["distinct_ratio"] = tracer.distinct_ratio(name, t["calls"])
    return out


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    skeinrep = import_skeinrep(spec["root"])
    check_cold(skeinrep)
    setup_s = time.monotonic() - spec["spawned"]
    result = {"setup_s": setup_s * speedprobe.burst_factor(), "raw": {"setup_s": setup_s}}
    if not spec["setup_only"]:
        work = run_workload(skeinrep, spec)
        result["raw"].update(work.pop("raw"))
        result.update(work)
    with open(os.path.join(spec["run_dir"], "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


def run_workload(skeinrep, spec: dict) -> dict:
    jobs = WORKLOADS[spec["workload"]]
    names = artifact_names(spec["workload"], spec["seed"])
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "digests.json")) as fh:
        digests = json.load(fh)
    inputs = os.path.join(here, "inputs")

    tracer = None
    if spec["trace"]:
        import layertrace
        tracer = layertrace.Tracer()
        wrapped = layertrace.install(tracer)
        missed = layertrace.unwrapped_references(tracer)
        if missed:
            raise RuntimeError("bindings the tracer did not wrap: " + "; ".join(missed))
    with speedprobe.Sampler(on_probe=tracer and tracer.exclude) as sampler:
        records = run_jobs(skeinrep, jobs, names, spec["run_dir"], inputs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_jobs(jobs, records, digests)

    # wall_s is the sum over the jobs, which run back to back.
    raw = dict.fromkeys(("wall_s", "certify_s", "replay_s", "matrix_s", "oracle_s"), 0.0)
    out = dict(raw)
    for rec in records:
        rec["seconds"], factor = sampler.job_time(rec["start"], rec["end"])
        rec["normalized_s"] = rec["seconds"] * factor
        for name in ("wall_s", CATEGORY_OF_KIND.get(rec["kind"])):
            if name:
                raw[name] += rec["seconds"]
                out[name] += rec["normalized_s"]
    out.update(raw=raw, peak_rss_mb=peak_rss_mb,
               artifact_bytes=sum(rec.get("bytes", 0) for rec in records
                                  if rec["kind"] == "certify"),
               jobs=[{k: rec.get(k) for k in ("id", "exit", "seconds", "normalized_s",
                                              "sha256", "bytes", "problems")}
                     for rec in records])
    if tracer is not None:
        certs = [rec["out"] for rec in records
                 if rec["kind"] == "certify" and os.path.exists(rec["out"])]
        out["nodes_emitted"], out["nodes_unique"] = count_nodes(certs)
        out["layers"] = layer_metrics(tracer, wrapped)
        out["spans"] = tracer.span_table()
    return out


if __name__ == "__main__":
    sys.exit(main())

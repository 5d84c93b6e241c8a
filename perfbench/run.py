"""Cold-process benchmark of the skeinrep CLI jobs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rou-certify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Each timed iteration of a workload is a fresh worker interpreter
(perfbench/worker.py) that imports skeinrep from `src/`, checks that its
caches are cold and runs the workload's jobs one after another.  Workers
run one at a time.  Iterations repeat until `--seconds` have passed (at
least one); extra set-up-only workers give `setup_s` more samples.  Each
metric is the median over the run's samples.

With `--trace 1`, one more worker runs the workload with every skeinrep
layer wrapped (perfbench/layertrace.py) and the per-layer metrics named in
BENCHMARK.json are reported instead of the end-to-end ones.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The full
record (environment, every sample, the span table) is written to
`.perfbench_out/` in the checkout.  The exit code is 0 when every output
check passed, 1 when one failed, and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_ONLY_WORKERS = 8           # set-up-only workers per run, besides the timed ones
WORKER_TIMEOUT_S = 150
TIMES = ("wall_s", "certify_s", "replay_s", "matrix_s", "oracle_s")
E2E_PRINTED = (("setup_s", "s"), ("wall_s", "s"), ("certify_s", "s"), ("replay_s", "s"),
               ("matrix_s", "s"), ("oracle_s", "s"), ("artifact_bytes", "bytes"),
               ("peak_rss_mb", "MB"), ("fail_frac", "ratio"))
# Scalar ops that a workload is predicted not to reach at all.
BYPASSED = {"rou-certify": "scalars.gen.", "wide-replay": "scalars.gen.",
            "generic-matrices": "scalars.rou."}


class CannotRun(Exception):
    pass


# ---------------------------------------------------------------------------
# Run record.
# ---------------------------------------------------------------------------


def git_rev() -> str:
    """HEAD's commit read from .git in the checkout, without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_record(args) -> dict:
    with open("/proc/loadavg") as fh:
        loadavg = fh.read().strip()
    return {"git_rev": git_rev(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": args.seed, "loadavg_at_start": loadavg,
            "seconds": args.seconds, "trace": args.trace}


def load_metric_specs() -> dict:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as e:
        raise CannotRun(f"cannot read BENCHMARK.json: {e}")
    return {"end_to_end": bench["end_to_end"], "per_layer": bench["per_layer"]}


# ---------------------------------------------------------------------------
# Workers.
# ---------------------------------------------------------------------------


def spawn_worker(workload: str, args, run_dir: str, trace: bool, setup_only: bool):
    """Run one worker to completion; return its result dict, or None if it
    crashed or timed out."""
    os.makedirs(run_dir)
    spec_path = os.path.join(run_dir, "spec.json")
    spec = {"root": ROOT, "workload": workload, "seed": args.seed, "run_dir": run_dir,
            "trace": trace, "setup_only": setup_only}
    try:
        spec["spawned"] = time.monotonic()
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                              stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"worker for {workload} exited with {proc.returncode}", file=sys.stderr)
            return None
        with open(os.path.join(run_dir, "result.json")) as fh:
            return json.load(fh)
    except subprocess.TimeoutExpired:
        print(f"worker for {workload} timed out after {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run_workload(workload: str, args, scratch: str) -> dict:
    counter = itertools.count()
    new_dir = lambda: os.path.join(scratch, f"w{next(counter)}")  # noqa: E731
    n_jobs = len(WORKLOADS[workload])

    setups = []
    for _ in range(SETUP_ONLY_WORKERS):
        res = spawn_worker(workload, args, new_dir(), trace=False, setup_only=True)
        if res is None:
            raise CannotRun("a set-up-only worker failed")
        setups.append((res["setup_s"], res["raw"]["setup_s"]))

    iterations = []
    checks = []   # (name, passed) for checks that span iterations
    t_start = time.monotonic()
    while not iterations or time.monotonic() - t_start < args.seconds:
        iterations.append(spawn_worker(workload, args, new_dir(), trace=False,
                                       setup_only=False))
    traced = None
    if args.trace:
        traced = spawn_worker(workload, args, new_dir(), trace=True, setup_only=False)

    ok = [it for it in iterations if it is not None]
    setups += [(it["setup_s"], it["raw"]["setup_s"]) for it in ok]
    attempted = n_jobs * (len(iterations) + (1 if args.trace else 0))
    failed_jobs = sum(n_jobs for it in iterations + ([traced] if args.trace else [])
                      if it is None)
    for it in ok + ([traced] if traced else []):
        failed_jobs += sum(1 for job in it["jobs"] if job["problems"])

    digests = [[job["sha256"] for job in it["jobs"]] for it in ok]
    checks.append(("outputs identical across iterations",
                   all(d == digests[0] for d in digests)))
    e2e, raw = {}, {}
    if ok:
        for name in TIMES:
            e2e[name] = statistics.median(it[name] for it in ok)
            raw[name] = statistics.median(it["raw"][name] for it in ok)
        e2e["peak_rss_mb"] = statistics.median(it["peak_rss_mb"] for it in ok)
        e2e["artifact_bytes"] = statistics.median_low(it["artifact_bytes"] for it in ok)
    e2e["setup_s"] = statistics.median(s for s, _ in setups)
    raw["setup_s"] = statistics.median(r for _, r in setups)
    layers = None
    if traced is not None and ok:
        checks.append(("traced outputs equal untraced outputs",
                       [job["sha256"] for job in traced["jobs"]] == digests[0]
                       and traced["artifact_bytes"] == ok[0]["artifact_bytes"]))
        prefix = BYPASSED[workload]
        bypass_calls = sum(v["calls"] for k, v in traced["layers"].items()
                           if k.startswith(prefix))
        checks.append((f"{prefix}* not called on {workload}", bypass_calls == 0))
        layers = traced["layers"]
        layers["trace"] = {"overhead_s": traced["wall_s"] - e2e["wall_s"]}
        layers["certificates"] = {"nodes_emitted": traced["nodes_emitted"],
                                  "nodes_unique": traced["nodes_unique"]}
    elif args.trace:
        checks.append(("traced worker completed", False))
    n_checks = len(checks)
    failed_checks = sum(1 for _, passed in checks if not passed)
    e2e["fail_frac"] = (failed_jobs + failed_checks) / (attempted + n_checks)
    return {
        "workload": workload,
        "attempted": attempted + n_checks,
        "failed": failed_jobs + failed_checks,
        "checks": [{"check": name, "passed": passed} for name, passed in checks],
        "e2e": e2e,
        "raw": raw,
        "samples": {"setup_s": setups, "iterations": iterations},
        "layers": layers,
        "spans": traced["spans"] if traced else None,
    }


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------


def layer_value(layers: dict, name: str):
    """Look up a per-layer metric "<module>.<fn>.<stat>" or "<group>.<stat>"."""
    owner, _, stat = name.rpartition(".")
    try:
        return layers[owner][stat]
    except KeyError:
        raise CannotRun(f"the traced run has no value for per-layer metric {name}")


def print_workload(res: dict, specs: dict) -> None:
    n_iter = len(res["samples"]["iterations"])
    n_setup = len(res["samples"]["setup_s"])
    print(f"== {res['workload']}: {n_iter} timed iteration(s), {n_setup} set-up samples")
    for name, unit in E2E_PRINTED:
        if name in res["e2e"]:
            value = res["e2e"][name]
            text = f"{name} = {value if isinstance(value, int) else f'{value:.6g}'} {unit}"
            if name in res["raw"]:
                text += f" (raw {res['raw'][name]:.6g} s)"
            print(text)
    for check in res["checks"]:
        print(f"check {'ok    ' if check['passed'] else 'FAILED'} {check['check']}")
    for it in res["samples"]["iterations"]:
        for job in (it or {}).get("jobs", ()):
            for problem in job["problems"]:
                print(f"job FAILED {job['id']}: {problem}")
    if res["layers"] is not None:
        for spec in specs["per_layer"]:
            value = layer_value(res["layers"], spec["name"])
            print(f"{spec['name']} = {value if isinstance(value, int) else f'{value:.6g}'} "
                  f"{spec['unit']}")


def metrics_of(res: dict, specs: dict, trace: bool, prefix: str = "") -> dict:
    if trace:
        return {prefix + s["name"]: {"value": layer_value(res["layers"], s["name"]),
                                     "unit": s["unit"]} for s in specs["per_layer"]}
    return {prefix + s["name"]: {"value": res["e2e"][s["name"]], "unit": s["unit"]}
            for s in specs["end_to_end"] if s["name"] in res["e2e"]}


def coverage_check(results: list, specs: dict) -> tuple:
    """Every function a per-layer metric names is called on some workload."""
    called = set()
    for res in results:
        called.update(k for k, v in res["layers"].items() if v.get("calls"))
    named = {s["name"].rpartition(".")[0] for s in specs["per_layer"]}
    named -= {"trace", "certificates"}
    missing = sorted(named - called)
    return (f"every traced function is called on some workload"
            + (f" (never called: {', '.join(missing)})" if missing else ""), not missing)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that subprocess.run kills and reaps
    # the running worker before this process ends.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "skeinrep", "__init__.py")):
            raise CannotRun(f"no skeinrep sources under {os.path.join(ROOT, 'src')}")
        specs = load_metric_specs()
        record = run_record(args)
        workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        scratch = os.path.join(OUT, f"tmp-{os.getpid()}")
        try:
            results = [run_workload(w, args, scratch) for w in workloads]
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        extra_checks = []
        if args.trace and args.workload == "all" and all(r["layers"] for r in results):
            extra_checks.append(coverage_check(results, specs))
        for res in results:
            print_workload(res, specs)
        for name, passed in extra_checks:
            print(f"check {'ok    ' if passed else 'FAILED'} {name}")
        prefix = (lambda r: r["workload"] + ".") if args.workload == "all" else (lambda r: "")
        metrics = {}
        for res in results:
            if args.trace and res["layers"] is None:
                continue
            metrics.update(metrics_of(res, specs, args.trace, prefix(res)))
    except CannotRun as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in results) + len(extra_checks)
    failed = sum(r["failed"] for r in results) + sum(1 for _, ok in extra_checks if not ok)
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"record": record, "summary": summary, "workloads": results,
                   "checks": [{"check": n, "passed": p} for n, p in extra_checks]},
                  fh, indent=1)
    print(f"record written to {os.path.relpath(path, ROOT)}")
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

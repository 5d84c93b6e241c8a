"""The benchmark in perfbench/ still finds, by name, what it measures.

The tracer wraps skeinrep functions by name and the worker reads lru_cache
statistics from some of them, so deleting or renaming one of those would
break the benchmark without failing any other test.  The check runs in a
fresh interpreter, because the tracer rebinds the package's functions in
place and the worker needs cold caches.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = r"""
import json, sys
root = sys.argv[1]
sys.path.insert(0, root + "/perfbench")
import layertrace, worker
skeinrep = worker.import_skeinrep(root)
worker.check_cold(skeinrep)
cold = [f"{m}.{n}" for m, n in worker.COLD_CACHES]
cached = [f"{m}.{n}" for m, n in worker.COLD_CACHES
          if hasattr(getattr(getattr(skeinrep, m), n), "cache_info")]
tracer = layertrace.Tracer()
wrapped = layertrace.install(tracer)
print(json.dumps({"cold": cold, "cached": cached, "wrapped": wrapped,
                  "unwrapped": layertrace.unwrapped_references(tracer)}))
"""


def test_tracer_and_worker_find_their_functions():
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    got = json.loads(out.stdout)
    assert got["unwrapped"] == []

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    # same naming rule as the coverage check in perfbench/run.py
    named = {m["name"].rpartition(".")[0] for m in spec["per_layer"]}
    named -= {"trace", "certificates"}
    assert sorted(named - set(got["wrapped"])) == []

    assert len(got["cold"]) == 6
    assert got["cached"] == got["cold"]

"""The benchmark's hooks find every package name they wrap.

`bench/worker.py` (untraced laps) and `bench/spans.py` (traced spans) wrap
package functions at the names their callers look up.  A name that is
renamed or removed breaks them differently: `LapClock.wrap` skips it
silently, so neighbouring laps merge and the lap-minimum estimator reads
slower with no change in the code; `Tracer.wrap` crashes the traced
worker.  Both are installed in a subprocess, because the wrappers patch the
package for the rest of the interpreter's life.
"""

import json
import subprocess
import sys
from pathlib import Path

import toric_cohomology

REPO = Path(__file__).resolve().parents[1]
SRC = Path(toric_cohomology.__file__).resolve().parents[1]

SCRIPT = """
import io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spans, worker

missing = []
wrap = worker.LapClock.wrap

def recording_wrap(self, owner, attr):
    if getattr(owner, attr, None) is None:
        missing.append(f"{owner.__name__}.{attr}")
    return wrap(self, owner, attr)

worker.LapClock.wrap = recording_wrap
worker.LapClock().install()
tracer = spans.Tracer()
tracer.install()

from toric_cohomology import cli
code, _, err = worker.cli_call(cli, [sys.argv[3], "--class=0"])
print(json.dumps({"missing": missing, "code": code, "err": err,
                  "spans": sorted({s[0] for s in tracer.spans}),
                  "degrees_per_class": tracer.summary()["engine.degrees_per_class"]}))
"""


def test_bench_hooks_find_their_names():
    model = SRC / "toric_cohomology" / "data" / "P2.json"
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(REPO / "bench"), str(SRC), str(model)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["missing"] == []
    assert report["code"] == 0, report["err"]
    # the engine reaches the scan, the table and the base point's solve
    # through the wrapped names
    assert {"srscan.scan_powerset", "multiplicity.multiplicity_table",
            "engine.cohomology", "counting.count",
            "exact_linalg.solve"} <= set(report["spans"])
    # P2's lattice degrees with nonzero factors are the empty set and {1,2,3};
    # the tracer reads each result's breakdown, which is what lists them
    assert report["degrees_per_class"] == 2

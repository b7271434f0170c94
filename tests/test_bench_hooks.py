"""The benchmark's hooks find every package name they wrap.

`bench/worker.py` (untraced laps) and `bench/spans.py` (traced spans) wrap
package functions at the names their callers look up.  A name that is
renamed or removed breaks them differently: `LapClock.wrap` skips it
silently, so neighbouring laps merge and the lap-minimum estimator reads
slower with no change in the code; `Tracer.wrap` crashes the traced
worker.  Both are installed in a subprocess, because the wrappers patch the
package for the rest of the interpreter's life.  The script also runs a
checked box with the lap clock on, so a per-class timer that stops firing
(its entry point no longer called where `wrap_class` patched it) shows up
as a missing class span.  A lapped name that still exists but is no
longer called merges laps just as silently, so the script also counts
the calls per lapped name during one dP3 class with the fan-route check
(P2 is not enough: its one-generator factors never reach
`reduced_homology`).  Three lapped names have no caller in `src/` and
never fire: `counting.recession_test`, `lp._eliminate_basis` and
`lp._pivot`.  A last run takes oracle_check's P1^5 box through the fan
route, whose sweep restricts and ranks only some subsets: those must
still reach `FanOracle.restriction_homology`, `oracle.restrict` and
`oracle.reduced_homology`.
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

missing, calls = [], {}
wrap = worker.LapClock.wrap

def recording_wrap(self, owner, attr):
    name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
    if getattr(owner, attr, None) is None:
        missing.append(name)
    wrap(self, owner, attr)
    fn = getattr(owner, attr, None)
    if fn is not None:
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)

worker.LapClock.wrap = recording_wrap
clock = worker.LapClock()
clock.install()
tracer = spans.Tracer()
tracer.install()

from toric_cohomology import cli
code, _, err = worker.cli_call(cli, [sys.argv[3], "--class=0"])
report = {"missing": missing, "code": code, "err": err,
          "spans": sorted({s[0] for s in tracer.spans}),
          "degrees_per_class": tracer.summary()["engine.degrees_per_class"]}
clock.on = True
report["box_code"], _, report["box_err"] = worker.cli_call(
    cli, [sys.argv[3], "--box=0..2", "--oracle-check", "--serre-check"])
report["class_spans"] = sorted(
    [case, list(alpha), len(outer)] for (case, alpha), outer in clock.class_spans.items())
calls = dict.fromkeys(calls, 0)  # count the dP3 run only
first = len(tracer.spans)
report["dP3_code"], _, report["dP3_err"] = worker.cli_call(
    cli, [sys.argv[4], "--class=0,0,0,0", "--oracle-check", "--format=json"])
report["calls"] = calls
under_oracle = set()  # spans of the dP3 run nested in the fan route's homology
for s in tracer.spans[first:]:
    p = s[2]
    while p >= 0 and tracer.spans[p][0] != "oracle.restriction_homology":
        p = tracer.spans[p][2]
    if p >= 0:
        under_oracle.add(s[0])
report["under_oracle"] = sorted(under_oracle)

# the fan route's sweep on oracle_check's P1^5 box: restrictions and ranks
# still go through the wrapped names, fewer of them than subsets
from functools import reduce
import models
with open(sys.argv[5], "w") as fh:
    json.dump(reduce(models.product_doc, [models.p1_doc()] * 5), fh)
calls = dict.fromkeys(calls, 0)
first, restrictions = len(tracer.spans), tracer.counts["oracle.restrictions"]
report["p15_code"], _, report["p15_err"] = worker.cli_call(
    cli, [sys.argv[5], "--box=0..2,0..2,0..2,0..1,0..1", "--oracle-check"])
report["p15_calls"] = calls
report["p15_restrictions"] = tracer.counts["oracle.restrictions"] - restrictions
report["p15_spans"] = sorted({s[0] for s in tracer.spans[first:]})
print(json.dumps(report))
"""


def test_bench_hooks_find_their_names(tmp_path):
    data = SRC / "toric_cohomology" / "data"
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(REPO / "bench"), str(SRC),
         str(data / "P2.json"), str(data / "dP3.json"), str(tmp_path / "P1^5.json")],
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
    # the per-class timers fire once per class on each outer entry point:
    # the engine, the fan route and the Serre check (whose own two
    # cohomology calls are nested in it)
    assert report["box_code"] == 0, report["box_err"]
    assert report["class_spans"] == [["", [a], 3] for a in range(3)]
    # every lapped name on the per-class and set-up paths is called
    assert report["dP3_code"] == 0, report["dP3_err"]
    fired = {name for name, n in report["calls"].items() if n}
    assert {"cli.load_variety", "cli.result_to_json", "engine.scan_powerset",
            "multiplicity.reduced_homology", "oracle.reduced_homology",
            "counting._first_var_range"} <= fired, report["calls"]
    # the fan route's restrictions and their ranks still reach the traced
    # names that `oracle.restrictions` and `exact_linalg.rank_s` read
    # (`oracle.restrict` and `simplicial.integer_rank`): cones skip the
    # ranks, but dP3's full restriction is a circle
    assert {"simplicial.restrict", "exact_linalg.integer_rank"} <= set(report["under_oracle"])
    # on P1^5 the sweep restricts 94 of its 1,024 subsets and ranks 32 of
    # them; each still reaches the lapped and traced names
    assert report["p15_code"] == 0, report["p15_err"]
    assert report["p15_calls"]["oracle.reduced_homology"] == 32, report["p15_calls"]
    assert report["p15_restrictions"] == 94
    assert {"oracle.restriction_homology", "simplicial.restrict",
            "simplicial.reduced_homology"} <= set(report["p15_spans"])

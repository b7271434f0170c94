"""One repetition of a benchmark workload, in a fresh interpreter.

Reads a job (JSON) on stdin and prints one JSON result line on stdout.  A
fresh process per repetition matters: the package keeps per-model
registries (`engine._engines`, `counting._counters`, `oracle._oracles`),
so a second repetition in the same interpreter would find its counts
already made.

Every case runs through the command line front end, `cli.run`:

  1. set-up: the probe class 0 alone, from the model file to its first
     h-vector.  The recession tests run lazily on the first class, so
     this is where the cold per-model cost lands;
  2. classes: the case's own arguments (a box or a list of classes, an
     output format, optional checks), with all output written to memory.

Job keys: src (the package's parent directory), cases (id, path, k,
args), trace (bool), trace_out (path or null), ladder_limit_s (when set,
the job is a reach probe: set-up only, cut off after that many seconds).
"""

from __future__ import annotations

import io
import json
import math
import resource
import signal
import sys
import time
from array import array
from fractions import Fraction

# Laps between two runs of the reference work: a run every 10 to 100 ms
# of work, depending on the workload.
REF_EVERY = 400


class _CaseTimeout(BaseException):
    """Raised by the alarm; a BaseException so no handler in the package swallows it."""


def cli_call(cli, argv):
    # `out`/`err` must be passed explicitly: run() binds sys.stdout as a
    # default argument at import time, so redirect_stdout would capture nothing.
    out, err = io.StringIO(), io.StringIO()
    args = cli.build_parser().parse_args(argv)
    code = cli.run(args, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def box_arg(ranges) -> str:
    # `--box=...` in one token: argparse reads a separate "-2..2" as a flag.
    return "--box=" + ",".join(f"{lo}..{hi}" for lo, hi in ranges)


def class_arg(alpha) -> str:
    # `--class=...` in one token: argparse reads a separate "-2,1" as a flag.
    return "--class=" + ",".join(str(a) for a in alpha)


class LapClock:
    """Time points (laps) at fixed places in the work of one repetition.

    Laps are taken on entry to and exit from the functions wrapped with
    `wrap` and at the case boundaries.  The work is deterministic, so lap i
    of one repetition and lap i of another bracket the same piece of work,
    and run.py can take each interval's minimum over repetitions.  The
    wrapped functions are chosen so that intervals are short: most take
    under a millisecond; a simplex basis elimination takes up to tens of
    milliseconds and the JSON dump of a large box a quarter of a second.

    Every REF_EVERY laps the clock runs the reference work once and
    records its time (see `lap`); run.py turns these into a speed scale.

    `wrap_class` also records, per (case, class), the lap indices of the
    outermost per-class calls; nested calls (serre_check calling
    cohomology) are part of their caller.  Class spans are recorded only
    while `on` is set, i.e. during the classes call, not the probe class.
    """

    def __init__(self):
        self.times = array("q")  # lap clock readings, ns
        self.ref_ns: list[int] = []
        self.on = False
        self.case = ""
        self.class_spans: dict[tuple, list] = {}
        self._busy = False
        self._paused = 0

    def lap(self) -> int:
        """Take a lap; every REF_EVERY laps, first run the reference work.

        The lap clock is perf_counter_ns less the time spent on reference
        runs, so no interval contains one.  Counting laps, not time, puts
        the reference runs at the same places in every repetition.
        """
        times = self.times
        if len(times) % REF_EVERY == 0:
            t0 = time.perf_counter_ns()
            self.ref_ns.append(reference_time())
            self._paused += time.perf_counter_ns() - t0
        times.append(time.perf_counter_ns() - self._paused)
        return len(times) - 1

    def wrap(self, owner, attr):
        fn, lap = getattr(owner, attr, None), self.lap
        if fn is None:  # a renamed helper only makes the intervals longer
            return

        def lapped(*args, **kwargs):
            lap()
            try:
                return fn(*args, **kwargs)
            finally:
                lap()

        setattr(owner, attr, lapped)

    def wrap_class(self, owner, attr):
        fn = getattr(owner, attr)

        def timed(obj, alpha, *args, **kwargs):
            outer = self.on and not self._busy
            self._busy |= outer
            i0 = self.lap()
            try:
                return fn(obj, alpha, *args, **kwargs)
            finally:
                i1 = self.lap()
                if outer:
                    self._busy = False
                    self.class_spans.setdefault((self.case, tuple(alpha)), []).append([i0, i1])

        setattr(owner, attr, timed)

    def install(self):
        from toric_cohomology import cli, counting, engine, lp, multiplicity, oracle
        from toric_cohomology.engine import CohomologyEngine
        from toric_cohomology.oracle import FanOracle

        self.wrap_class(CohomologyEngine, "cohomology")
        self.wrap_class(CohomologyEngine, "serre_check")
        self.wrap_class(FanOracle, "cohomology_via_fan")
        self.wrap(cli, "load_variety")
        self.wrap(cli, "result_to_json")
        self.wrap(engine, "scan_powerset")
        self.wrap(multiplicity, "reduced_homology")
        self.wrap(oracle, "reduced_homology")
        # These cut long calls into short intervals: a recession test into
        # its simplex basis eliminations and pivots (private helpers of lp),
        # and a large class's count into the nodes of the lattice-point
        # recursion (a private helper of counting).
        self.wrap(counting, "recession_test")
        self.wrap(lp, "_eliminate_basis")
        self.wrap(lp, "_pivot")
        self.wrap(counting, "_first_var_range")

    def intervals(self) -> list[int]:
        t = self.times
        return [b - a for a, b in zip(t, t[1:])]


def reference_time() -> int:
    """Time (ns) of one run of a fixed piece of pure-Python work.

    The work does not touch the package, so no change to the package moves
    it: it measures how fast the host runs at the moment (run.py,
    speed_scale).  It mixes what the package spends its time on: integer
    tuples with gcds and a set (as in a Fourier-Motzkin step), Fractions,
    dicts and JSON text.
    """
    t = time.perf_counter_ns()
    seen = set()
    for i in range(40):
        co = tuple(3 * i - j for j in range(6))
        g = 0
        for x in co:
            g = math.gcd(g, x)
        seen.add((co, g))
    rows = [[Fraction(i * j + 1, j + 2) for j in range(6)] for i in range(4)]
    for k in range(2):
        prow = rows[k]
        rows = [[a - Fraction(1, 3) * b for a, b in zip(r, prow)] for r in rows]
    d = {(i, i % 7): tuple(range(i % 9)) for i in range(150)}
    json.dumps([{"alpha": [i, -i], "h": [i, 0, len(d)]} for i in range(20)], indent=2)
    return time.perf_counter_ns() - t


def peak_rss_kib() -> float:
    # VmHWM is this process's own peak.  ru_maxrss is not: across exec it
    # keeps the parent's peak, and the parent holds every repetition's laps.
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def parse_rows(text: str, fmt: str):
    """[alpha, h, tags] per class from the front end's output."""
    if fmt == "json":
        return [[r["alpha"], r["h"], []] for r in json.loads(text)]
    if fmt == "csv":
        lines = text.splitlines()
        k = sum(1 for c in lines[0].split(",") if c.startswith("a"))
        rows = []
        for line in lines[1:]:
            vals = [int(x) for x in line.split(",")]
            rows.append([vals[:k], vals[k:], []])
        return rows
    rows = []
    for line in text.splitlines():
        head, _, rest = line.partition(": ")
        parts = rest.split("  [")
        alpha = [int(x) for x in head.strip("()").split(",")]
        h = [int(x) for x in parts[0].split()]
        rows.append([alpha, h, [p.rstrip("]") for p in parts[1:]]])
    return rows


def output_format(argv) -> str:
    for a in argv:
        if a.startswith("--format="):
            return a.split("=", 1)[1]
    return "table"


def run_case(cli, case, clock, tracer):
    zero = [0] * case["k"]
    if tracer is not None:
        tracer.case = case["id"]
    i0 = clock.lap()
    code, text, err = cli_call(cli, [case["path"], class_arg(zero)])
    i1 = clock.lap()
    result = {
        "id": case["id"],
        "setup_s": (clock.times[i1] - clock.times[i0]) * 1e-9,
        "setup_exit": code,
        "setup_rows": parse_rows(text, "table") if code == 0 else [],
        "stderr": err,
        "laps": [i0, i1],
    }
    if case.get("args") is None:
        return result, 0
    clock.on, clock.case = True, case["id"]
    i2 = clock.lap()
    code, text, err = cli_call(cli, [case["path"], *case["args"]])
    i3 = clock.lap()
    clock.on = False
    result.update(exit=code, classes_s=(clock.times[i3] - clock.times[i2]) * 1e-9,
                  output=text, stderr=result["stderr"] + err, laps=[i0, i1, i2, i3])
    return result, len(text)


def main() -> int:
    job = json.loads(sys.stdin.read())
    sys.path.insert(0, job["src"])
    from toric_cohomology import cli

    clock, tracer = LapClock(), None
    if job.get("trace"):
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        clock.install()

    limit = job.get("ladder_limit_s")
    if limit is not None:
        def on_alarm(signum, frame):
            raise _CaseTimeout

        signal.signal(signal.SIGALRM, on_alarm)
        case = job["cases"][0]
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            res, _ = run_case(cli, case, clock, None)
            timed_out = False
        except _CaseTimeout:
            res, timed_out = {"id": case["id"]}, True
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        res.update(timeout=timed_out, elapsed_s=time.perf_counter() - t0)
        print(json.dumps({"cases": [res]}))
        return 0

    results, out_bytes = [], 0
    for case in job["cases"]:
        res, nbytes = run_case(cli, case, clock, tracer)
        results.append(res)
        out_bytes += nbytes
    peak_rss_mb = peak_rss_kib() / 1024.0

    for case, res in zip(job["cases"], results):
        if "output" in res:
            text = res.pop("output")
            res["rows"] = parse_rows(text, output_format(case["args"])) if res["exit"] in (0, 3) else []
    report = {
        "cases": results,
        "wall_s": sum(r["setup_s"] + r.get("classes_s", 0.0) for r in results),
        "peak_rss_mb": peak_rss_mb,
        "output_bytes": out_bytes,
        "laps_ns": clock.intervals(),
        "ref_ns": clock.ref_ns,
        "class_laps": [[case, list(a), spans] for (case, a), spans in clock.class_spans.items()],
    }
    if tracer is not None:
        report["layers"] = tracer.summary()
        if job.get("trace_out"):
            tracer.write(job["trace_out"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

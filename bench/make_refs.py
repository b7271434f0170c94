"""Regenerate refs.json: reference answer digests for every input variant.

    python3 bench/make_refs.py

Each case's answers come from the engine route and are accepted only when
they pass every independent check that applies:

- the fan route (`FanOracle.cohomology_via_fan`), class by class;
- Serre duality, h^i(alpha) = h^(d-i)(K - alpha);
- the closed forms for P2 and products of lines;
- Kunneth for product models: h of (X x Y) at (a, b) is the convolution
  of h_X(a) and h_Y(b), each computed on its own factor.

A failed check stops the script; nothing is written.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402
from toric_cohomology import CohomologyEngine, FanOracle, parse_variety  # noqa: E402


def engine_of(doc):
    return CohomologyEngine(parse_variety(json.dumps(doc)))


def answers(case) -> list:
    engine = engine_of(case["doc"])
    oracle = FanOracle(engine.model)
    closed = checks.CLOSED_FORMS.get(case["closed_form"])
    factors = [engine_of(d) for d in case["factors"] or ()]
    rows = []
    for alpha in map(tuple, case["classes"]):
        h = list(engine.cohomology(alpha).dims)
        problems = []
        if list(oracle.cohomology_via_fan(alpha)) != h:
            problems.append("fan route")
        if not engine.serre_check(alpha)[0]:
            problems.append("Serre duality")
        if closed is not None and closed(alpha) != h:
            problems.append("closed form")
        if factors:
            ka = factors[0].model.num_classes
            ha = factors[0].cohomology(alpha[:ka]).dims
            hb = factors[1].cohomology(alpha[ka:]).dims
            if checks.convolve(ha, hb) != h:
                problems.append("Kunneth")
        if problems:
            raise SystemExit(f"{case['id']} {alpha}: h={h} fails {', '.join(problems)}")
        rows.append((alpha, h))
    return rows


def main() -> int:
    refs = {}
    for name in WORKLOADS:
        for v in range(workloads.VARIANTS):
            for case in workloads.build(name, SRC, v):
                key = checks.input_key(case)
                if key not in refs:
                    refs[key] = checks.answer_digest(answers(case))
        print(f"{name}: {len(refs)} references so far", flush=True)
    (BENCH / "refs.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans around the package's public functions, installed from outside it.

Each function is wrapped at the name its caller looks up (for example
`engine.multiplicity_table`, not `multiplicity.multiplicity_table`), so
the package itself is unchanged.  A span records its name, its layer
(the package module the function belongs to), the enclosing span, the
benchmark case it ran for, and start and end times.  Spans stay in memory;
`write` saves them once the measured work is over.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        # [name, layer, parent index or -1, case id, start ns, end ns]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.case = ""
        self.counts: dict[str, int] = defaultdict(int)
        self._count_keys: set = set()
        self._recession_keys: set = set()

    def wrap(self, owner, attr: str, layer: str, on_result=None) -> None:
        fn = getattr(owner, attr)
        name = f"{layer}.{attr}"
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, layer, stack[-1] if stack else -1, self.case, clock(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(owner, attr, traced)

    # counters, fed from the wrapped calls' arguments and results

    def _on_scan(self, args, degree_set):
        self.counts["srscan.degrees"] += len(degree_set.entries)
        self.counts["srscan.subsets"] += sum(
            len(taus) for groups in degree_set.entries.values() for taus in groups.values()
        )

    def _on_homology(self, args, dims):
        self.counts["simplicial.faces"] += len(args[0].faces)

    def _on_rank(self, args, rank):
        rows = args[0]
        self.counts["exact_linalg.rank_cells"] += len(rows) * (len(rows[0]) if rows else 0)

    def _on_count(self, args, result):
        counter, alpha, sigma = args[:3]
        key = (id(counter), tuple(alpha), sigma)
        self.counts["counting.count_calls"] += 1
        if key in self._count_keys:
            self.counts["counting.count_repeats"] += 1
        else:
            self._count_keys.add(key)
            if result.value is not None:
                self.counts["counting.points"] += result.value

    def _on_recession(self, args, result):
        self._recession_keys.add((id(args[0]), args[1]))

    def _on_simplex(self, args, result):
        self.counts["lp.simplex_calls"] += 1

    def _on_cohomology(self, args, result):
        self.counts["engine.cohomology_calls"] += 1
        self.counts["engine.breakdown_degrees"] += len(result.breakdown)

    def _on_restrict(self, args, result):
        self.counts["oracle.restrictions"] += 1

    def install(self) -> None:
        from toric_cohomology import cli, counting, engine, model, multiplicity, oracle, simplicial
        from toric_cohomology.counting import NegGroupCounter
        from toric_cohomology.engine import CohomologyEngine
        from toric_cohomology.exact_linalg import DiagonalizedSystem
        from toric_cohomology.oracle import FanOracle

        w = self.wrap
        w(cli, "run", "cli")
        w(cli, "parse_box_spec", "cli")
        w(cli, "result_to_json", "cli")
        w(cli, "load_variety", "model")
        w(model, "parse_variety", "model")
        w(model, "sr_from_max_cones", "model")
        w(model, "integer_rank", "exact_linalg", self._on_rank)
        w(cli, "engine_for", "engine")
        w(CohomologyEngine, "cohomology", "engine", self._on_cohomology)
        w(CohomologyEngine, "serre_check", "engine")
        w(engine, "scan_powerset", "srscan", self._on_scan)
        w(engine, "multiplicity_table", "multiplicity")
        w(multiplicity, "reduced_homology", "simplicial", self._on_homology)
        w(simplicial, "integer_rank", "exact_linalg", self._on_rank)
        w(engine, "counter_for", "counting")
        w(NegGroupCounter, "count", "counting", self._on_count)
        w(NegGroupCounter, "recession", "counting", self._on_recession)
        w(counting, "simplex_maximize", "lp", self._on_simplex)
        w(DiagonalizedSystem, "solve", "exact_linalg")
        w(cli, "oracle_for", "oracle")
        w(FanOracle, "cohomology_via_fan", "oracle")
        w(FanOracle, "restriction_homology", "oracle")
        w(oracle, "restrict", "simplicial", self._on_restrict)
        w(oracle, "reduced_homology", "simplicial", self._on_homology)
        w(oracle, "counter_for", "counting")

    def summary(self) -> dict[str, float]:
        """Per-layer times (seconds) and counts for everything traced so far."""
        spans = self.spans
        dur = [s[5] - s[4] for s in spans]
        child = [0] * len(spans)
        for i, s in enumerate(spans):
            if s[2] >= 0:
                child[s[2]] += dur[i]
        total = defaultdict(int)   # by span name
        own = defaultdict(int)     # self time by span name
        layer_own = defaultdict(int)
        layer_total = defaultdict(int)  # outermost spans of each layer
        for i, s in enumerate(spans):
            name, layer = s[0], s[1]
            total[name] += dur[i]
            own[name] += dur[i] - child[i]
            layer_own[layer] += dur[i] - child[i]
            p = s[2]
            while p >= 0 and spans[p][1] != layer:
                p = spans[p][2]
            if p < 0:
                layer_total[layer] += dur[i]
        c = self.counts
        ns = 1e-9
        return {
            "model.parse_s": layer_total["model"] * ns,
            "srscan.scan_s": total["srscan.scan_powerset"] * ns,
            "srscan.subsets": c["srscan.subsets"],
            "srscan.degrees": c["srscan.degrees"],
            "multiplicity.table_s": total["multiplicity.multiplicity_table"] * ns,
            "simplicial.homology_s": total["simplicial.reduced_homology"] * ns,
            "simplicial.faces": c["simplicial.faces"],
            "exact_linalg.rank_s": total["exact_linalg.integer_rank"] * ns,
            "exact_linalg.rank_cells": c["exact_linalg.rank_cells"],
            "exact_linalg.solve_s": total["exact_linalg.solve"] * ns,
            "lp.simplex_s": total["lp.simplex_maximize"] * ns,
            "lp.simplex_calls": c["lp.simplex_calls"],
            "counting.recession_s": total["counting.recession"] * ns,
            "counting.recession_sigmas": len(self._recession_keys),
            "counting.count_s": own["counting.count"] * ns,
            "counting.count_calls": c["counting.count_calls"],
            "counting.count_memo_ratio": c["counting.count_repeats"] / max(1, c["counting.count_calls"]),
            "counting.points": c["counting.points"],
            "engine.self_s": layer_own["engine"] * ns,
            "engine.degrees_per_class": c["engine.breakdown_degrees"] / max(1, c["engine.cohomology_calls"]),
            "oracle.fan_s": total["oracle.cohomology_via_fan"] * ns,
            "oracle.restriction_s": total["oracle.restriction_homology"] * ns,
            "oracle.restrictions": c["oracle.restrictions"],
            "cli.self_s": layer_own["cli"] * ns,
        }

    def write(self, path) -> None:
        """One JSON array per line: name, parent index, case, start ns, end ns."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, _, parent, case, start, end in self.spans:
                fh.write(json.dumps([name, parent, case, start, end]) + "\n")

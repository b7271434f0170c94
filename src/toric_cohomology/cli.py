"""Command-line front end.

Reads a variety file, computes cohomology vectors for one or many divisor
classes, and emits table, CSV, or JSON reports.  Optional flags rerun each
class through the fan-route oracle and the Serre duality self-test.

Exit codes: 0 success, 1 input/parse errors (usage errors included) or
stdout closed early (a broken pipe, which writes nothing to stderr),
2 non-finite cohomology, 3 a requested check failed.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
from typing import Sequence

from ._bits import bitstring, to_1based
from .counting import format_rationom
from .engine import CohomologyResult, engine_for
from .errors import ModelError, NonFiniteCohomologyError
from .model import ToricVarietyModel, load_variety
from .oracle import oracle_for

RATIONOM_LISTING_LIMIT = 50
# buffered rows take about 1.6 KiB per class, so a box stays under about 1.7 GiB
MAX_BOX_CLASSES = 1 << 20


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the input-error code; argparse's 2 is non-finite here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="toric-cohomology",
        description="Line-bundle sheaf cohomology dimensions on simplicial "
        "projective toric varieties (exact arithmetic).",
    )
    p.add_argument("input", help="variety description file (JSON)")
    p.add_argument(
        "--class", dest="classes", action="append", metavar="A1,A2,...",
        help="divisor class as comma-separated integers; repeatable",
    )
    p.add_argument(
        "--box", metavar="LO..HI,LO..HI,...",
        help="inclusive integer range per divisor class coordinate",
    )
    p.add_argument(
        "--format", choices=("table", "csv", "json"), default="table",
        help="output format (default: table)",
    )
    p.add_argument(
        "--breakdown", action="store_true",
        help="per-degree contributions, with explicit rational monomials "
        f"when a neg-group has at most {RATIONOM_LISTING_LIMIT} elements",
    )
    p.add_argument("--oracle-check", action="store_true",
                   help="verify every result against the fan-route oracle")
    p.add_argument("--serre-check", action="store_true",
                   help="verify Serre duality for every class")
    return p


def _integer(text: str) -> int:
    """An optional sign and ASCII digits, with surrounding spaces; int()
    alone also reads 1_0 as 10 and other scripts' digits.  ValueError else."""
    s = text.strip()
    digits = s[1:] if s[:1] in ("+", "-") else s
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(text)
    return int(s)


def parse_class_spec(spec: str, k: int) -> tuple[int, ...]:
    try:
        alpha = tuple(_integer(s) for s in spec.split(","))
    except ValueError:
        raise ModelError(f"bad divisor class {spec!r}: entries must be integers")
    if len(alpha) != k:
        raise ModelError(
            f"divisor class {spec!r} has {len(alpha)} entries, expected {k}"
        )
    return alpha


def parse_box_spec(spec: str, k: int) -> list[tuple[int, ...]]:
    ranges = []
    for part in spec.split(","):
        lo, sep, hi = part.partition("..")
        if not sep:
            raise ModelError(f"bad box range {part!r}: expected LO..HI")
        try:
            lo_i, hi_i = _integer(lo), _integer(hi)
        except ValueError:
            raise ModelError(f"bad box range {part!r}: bounds must be integers")
        if lo_i > hi_i:
            raise ModelError(f"bad box range {part!r}: lower bound exceeds upper")
        ranges.append(range(lo_i, hi_i + 1))
    if len(ranges) != k:
        raise ModelError(f"box has {len(ranges)} ranges, expected {k}")
    count = math.prod(len(r) for r in ranges)
    if count > MAX_BOX_CLASSES:
        raise ModelError(f"box has {count} classes, more than {MAX_BOX_CLASSES}")
    return list(itertools.product(*ranges))


def result_to_json(model: ToricVarietyModel, result: CohomologyResult, breakdown: bool) -> dict:
    row = {"alpha": list(result.alpha), "h": list(result.dims)}
    if breakdown:
        row["breakdown"] = [
            {
                "degree": bitstring(entry.degree, model.n),
                "count": entry.count.value,
                "factors": {str(r): b for r, b in sorted(entry.factors.items())},
                "contrib": {str(i): c for i, c in sorted(entry.contrib.items())},
            }
            for entry in result.breakdown
        ]
    return row


def _alpha_str(alpha: Sequence[int]) -> str:
    return "(" + ",".join(str(a) for a in alpha) + ")"


def _print_breakdown(model: ToricVarietyModel, result: CohomologyResult, out) -> None:
    for entry in result.breakdown:
        degset = set(to_1based(entry.degree)) or "{}"
        print(
            f"    degree {bitstring(entry.degree, model.n)} {degset} "
            f"count={entry.count.value} factors={entry.factors} "
            f"contrib={entry.contrib}",
            file=out,
        )
        if entry.count.value and entry.count.value <= RATIONOM_LISTING_LIMIT:
            vectors = result.engine.counter.enumerate(result.alpha, entry.degree)
            monos = ", ".join(format_rationom(model, u) for u in vectors)
            print(f"      rationoms: {monos}", file=out)


def _choose_classes(args, k: int) -> list[tuple[int, ...]]:
    """The requested classes in lexicographic order, each once."""
    if args.box is not None and args.classes is not None:
        raise ModelError("give either --class or --box, not both")
    if args.box is not None:
        return parse_box_spec(args.box, k)
    if args.classes is not None:
        return sorted({parse_class_spec(s, k) for s in args.classes})
    raise ModelError("no divisor classes requested (use --class or --box)")


def run(args, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        if args.breakdown and args.format == "csv":
            raise ModelError("--breakdown needs --format=table or --format=json")
        model = load_variety(args.input)
        alphas = _choose_classes(args, model.num_classes)
        engine = engine_for(model)
        rows = []
        for alpha in alphas:
            result = engine.cohomology(alpha)
            checks = []
            if args.oracle_check:
                fan = oracle_for(model).cohomology_via_fan(alpha)
                checks.append(("oracle", fan == result.dims))
            if args.serre_check:
                checks.append(("serre", engine.serre_check(alpha)[0]))
            rows.append((result, checks))
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.input}: {exc}", file=err)
        return 1
    except ModelError as exc:
        print(f"error: {exc}", file=err)
        return 1
    except NonFiniteCohomologyError as exc:
        print(f"error: {exc}", file=err)
        return 2

    if args.format == "json":
        payload = [result_to_json(model, r, args.breakdown) for r, _ in rows]
        json.dump(payload, out, indent=2)
        print(file=out)
    elif args.format == "csv":
        writer = csv.writer(out)
        writer.writerow(
            [f"a{j + 1}" for j in range(model.num_classes)]
            + [f"h{i}" for i in range(model.dim + 1)]
        )
        for result, _ in rows:
            writer.writerow(list(result.alpha) + list(result.dims))
    else:
        for result, checks in rows:
            tags = "".join(
                f"  [{name} {'PASS' if ok else 'FAIL'}]" for name, ok in checks
            )
            dims = " ".join(str(h) for h in result.dims)
            print(f"{_alpha_str(result.alpha)}: {dims}{tags}", file=out)
            if args.breakdown:
                _print_breakdown(model, result, out)

    return 3 if any(not ok for _, checks in rows for _, ok in checks) else 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return run(args)


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left (`| head`); the flush at exit must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entry()

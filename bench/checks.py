"""Answer checking: closed forms and stored reference digests.

A case's answers are the pairs (alpha, h) over all its classes.  Their
digest is stored in refs.json under a key made from the case's inputs (the
model document and the classes), so a wrong answer anywhere in a case
shows as a digest mismatch.  P2 and products of lines also have closed
forms, checked class by class.
"""

from __future__ import annotations

import hashlib
import json
from math import comb


def _sha(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def input_key(case: dict) -> str:
    return _sha([case["doc"], case["classes"]])


def answer_digest(rows) -> str:
    return _sha(sorted([list(alpha), list(h)] for alpha, h in rows))


def convolve(x, y):
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] += a * b
    return out


def p1_dims(a: int) -> list[int]:
    if a >= 0:
        return [a + 1, 0]
    return [0, -a - 1] if a <= -2 else [0, 0]


def p1_power_dims(alpha) -> list[int]:
    """Kunneth: h on (P1)^k is the convolution of the factors' h."""
    h = [1]
    for a in alpha:
        h = convolve(h, p1_dims(a))
    return h


def p2_dims(alpha) -> list[int]:
    (a,) = alpha
    if a >= 0:
        return [comb(a + 2, 2), 0, 0]
    if a <= -3:
        return [0, 0, comb(-a - 1, 2)]
    return [0, 0, 0]


CLOSED_FORMS = {"P2": p2_dims, "P1^k": p1_power_dims}

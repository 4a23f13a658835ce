"""Spans recorded from outside the program, plus the statistics helpers.

fedhead's modules import each other with ``from .x import y``, so a call is
traced by replacing the name where the caller looks it up (for example
``fedhead.federation.train_batch``), never by editing fedhead. Spans are kept
in memory and summarised once the measured section is over.
"""
from __future__ import annotations

import math
import threading
import time
from collections import defaultdict
from fractions import Fraction

# A span: (name, start, end, parent index or -1, round id, thread id, tag).
NAME, START, END, PARENT, ROUND, THREAD, TAG = range(7)

CANDIDATE_PERCENTILES = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10


class Tracer:
    """Wraps callables so that every call records one span.

    `round_of` returns the identifier shared by the spans of one round; `tag_of`
    optionally derives a tag from the call's arguments and result (the message
    type of an ``encode_message`` call, or how many samples a ``take`` returned).
    Parent links follow a per-thread stack.
    """

    def __init__(self, round_of=lambda: 0) -> None:
        self._open: list[list] = []
        self.round_of = round_of
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, tag_of=None):
        spans = self._open
        local = self._local
        tracer = self

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            # The record is a list so children can name it before it closes;
            # list.append is atomic, so threads may share `spans`.
            record = [name, 0.0, 0.0, stack[-1] if stack else None, 0, 0, None]
            stack.append(record)
            record[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                stack.pop()
                record[ROUND] = tracer.round_of()
                record[THREAD] = threading.get_ident()
                spans.append(record)
            if tag_of is not None:
                record[TAG] = tag_of(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @property
    def spans(self) -> list[tuple]:
        """Closed spans as tuples, parents given by index into this list."""
        index = {id(r): i for i, r in enumerate(self._open)}
        return [
            (r[NAME], r[START], r[END], -1 if r[PARENT] is None else index[id(r[PARENT])],
             r[ROUND], r[THREAD], r[TAG])
            for r in self._open
        ]

    def patch(self, owner, attr: str, name: str, tag_of=None) -> None:
        """Replace `owner.attr` with a traced wrapper until `restore()`."""
        original = getattr(owner, attr)  # AttributeError if fedhead renamed it
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, tag_of))

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans.

    Children of one span may overlap (threads) or stick out of it; only the
    union of their intervals clipped to the parent counts.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s[START]
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, s[END])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s[END] - s[START]) - covered)
    return out


def nearest_rank(values, p: float) -> float:
    """The p-th percentile by nearest rank: the ceil(p/100 * n)-th smallest value."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    return ordered[_rank(len(ordered), p) - 1]


def _rank(n: int, p: float) -> int:
    # Exact decimal arithmetic: 0.999 * 10000 must give rank 9990, not 9991.
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def beyond(n: int, p: float) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def highest_percentile(n: int):
    """The highest candidate percentile with at least MIN_BEYOND of n samples
    above it, or None when even the lowest candidate has fewer."""
    best = None
    for p in CANDIDATE_PERCENTILES:
        if beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])

"""Traced, level-by-level replay of ``syzkit.resolve``.

The replay makes the same public calls ``resolve`` makes for each level --
``frame.lead_syz``, ``lift.lift_frame_terms`` with a ``SubtreeCache`` of its
own, ``orderings.reorder_permutation`` and the ``GroebnerBasis`` of the new
level -- and records a span around each, so that time, operation counts and
cache statistics can be attributed per layer and per level.  The benchmark
checks that the replay returns exactly the differentials ``resolve`` returns.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from syzkit.algebra import OpCounters, vec_normalized
from syzkit.frame import lead_syz
from syzkit.groebner import GroebnerBasis
from syzkit.lift import SubtreeCache, lift_frame_terms
from syzkit.orderings import reorder_permutation


class Tracer:
    """Spans kept in memory: name, level, start, duration and the index of
    the enclosing span (-1 at the top)."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, level=None):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        start = time.perf_counter()
        self.spans.append({"name": name, "level": level, "start": start,
                           "seconds": None, "parent": parent})
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx]["seconds"] = time.perf_counter() - start

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def total(self, name):
        return sum(s["seconds"] for s in self.spans if s["name"] == name)


class Replay:
    """Result of one replay: differentials, twists, counters and the
    subtree-cache statistics summed over levels."""

    def __init__(self, diffs, twists, counters, hits, expansions, n_lifts):
        self.diffs = diffs
        self.twists = twists
        self.counters = counters
        self.cache_hits = hits
        self.cache_expansions = expansions
        self.n_lifts = n_lifts


def replay_resolve(gb, ring, base, alg, tracer, reorder="negdegrevlex"):
    """Resolve R/<gb> level by level as ``resolve(..., gb=gb)`` does for a
    homogeneous ideal, recording spans in ``tracer``."""
    counters = OpCounters()
    diffs = [list(gb.gens)]
    twists = [(0,), tuple(gb.degrees)]
    hits = expansions = n_lifts = 0
    G = gb
    with tracer.span(f"resolve.{alg}"):
        while True:
            level = len(diffs)
            with tracer.span("frame.lead_syz", level):
                frame = lead_syz(G.lms, base, G.degrees)
            if not frame.terms:
                break
            n_lifts += len(frame.terms)
            ext = G.chain.extend(G.lms)
            cache = SubtreeCache() if alg == "tree" else None
            with tracer.span(f"lift.{alg}", level):
                lifted = lift_frame_terms(frame.terms, G, ext, alg, counters,
                                          cache=cache)
            if cache is not None:
                hits += cache.hits
                expansions += cache.expansions
            with tracer.span("orderings.reorder_permutation", level):
                perm = reorder_permutation(frame.terms, ext, level, reorder)
            frame = frame.permuted(perm)
            with tracer.span("groebner.GroebnerBasis", level):
                key = ext.key_fn(level)
                cols = [vec_normalized(lifted[i], key) for i in perm]
                G = GroebnerBasis(ring, ext, cols, level=level,
                                  rank=len(diffs[-1]), twists=twists[-1])
            diffs.append(cols)
            twists.append(tuple(frame.degrees))
            counters.n_terms += sum(len(v) for v in cols)
    return Replay(diffs, twists, counters, hits, expansions, n_lifts)

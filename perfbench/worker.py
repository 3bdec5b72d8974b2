"""One benchmark workload in one process: set up, measure, check, report.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``
and a fixed ``PYTHONHASHSEED``.  ``--t0`` is the parent's monotonic clock
just before it started this process, so ``setup_s`` runs from process start
until the inputs are parsed ideals in memory.  The last line of standard
output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import syzkit
from syzkit.algebra import OpCounters, Ring
from syzkit.cli import (
    InputDocument,
    parse_input,
    serialize_input,
    serialize_resolution,
)
from syzkit.examples_gen import AgrSpec, gen_agr, gen_random_homogeneous
from syzkit.groebner import buchberger, monomials_of_degree
from syzkit.orderings import BaseOrdering
from syzkit.resolution import (
    betti_minimal_from_nonminimal,
    betti_nonminimal,
    hilbert_numerator,
    minimize,
    resolve,
)

import checks as C
from replay import Tracer, replay_resolve

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
ALGS = ("reduce", "hybrid", "tree")


class AgrWorkload:
    """One apolar Gorenstein ideal: generated, round-tripped through the
    input format, resolved with tree, tabulated, then serialized (agr42) or
    minimized (agr-min)."""

    def __init__(self, spec, last_stage, trace_algs, paper_tables):
        self.spec = spec
        self.last_stage = last_stage
        self.trace_algs = trace_algs
        self.paper_tables = paper_tables
        self.setup_stages = ("generate", "parse")
        self.stages = ("groebner", "resolve", "betti_nonminimal",
                       "betti_minimal", last_stage)

    def setup(self, tr):
        ideal = tr.call("examples_gen.gen_agr", gen_agr, self.spec)
        doc = InputDocument(ideal.ring, BaseOrdering("dp", ideal.ring.nvars),
                            ideal.generators)
        text = tr.call("cli.serialize_input", serialize_input, doc)
        return {"ideal": ideal, "doc": tr.call("cli.parse_input", parse_input, text)}

    def run_round(self, inp, tr, traced):
        doc = inp["doc"]
        gens, ring, base = doc.generators, doc.ring, doc.ordering
        gb = tr.call("groebner.buchberger", buchberger, gens, ring, base)
        ctr = OpCounters()
        res = tr.call("resolution.resolve.tree", resolve, gens, ring, base,
                      alg="tree", counters=ctr, gb=gb)
        out = {"gb": gb, "res": {"tree": res}, "ctr": {"tree": ctr},
               "nm": tr.call("resolution.betti_nonminimal", betti_nonminimal, res),
               "mn": tr.call("resolution.betti_minimal",
                             betti_minimal_from_nonminimal, res)}
        if self.last_stage == "minimize":
            out["mres"] = tr.call("resolution.minimize", minimize, res)
        # a traced run serializes on every workload, as a per-layer figure
        if self.last_stage == "serialize" or traced:
            out["text"] = tr.call("cli.serialize_resolution",
                                  serialize_resolution, res)
        if traced:
            trace_round(out, ring, base, self.trace_algs, tr,
                        check_complex=self.last_stage == "minimize")
        return out

    def attempted(self, rounds):
        """Pipeline stages run: set-up once, the rest once per round."""
        return len(self.setup_stages) + len(self.stages) * rounds

    def check(self, inp, out, rng, per_level):
        """Failures as (stage, message) pairs."""
        ideal, doc = inp["ideal"], inp["doc"]
        ring, kind = doc.ring, doc.ordering.kind
        res, gb_gens = out["res"]["tree"], out["gb"].gens
        nm, mn = out["nm"].data, out["mn"].data
        bad = []
        if doc.generators != ideal.generators:
            bad.append(("parse", "parsed generators differ from the generated ones"))
        d = self.spec.d
        h = C.hilbert_function([next(iter(g))[0] for g in gb_gens], ring.nvars, d + 1)
        if h[:d + 1] != ideal.hilbert or h[d + 1] or h != h[d::-1] + [0]:
            bad.append(("generate", f"Hilbert function {h} is not the symmetric "
                                    f"catalecticant sequence {ideal.hilbert}"))
        bad += C.check_gb(doc.generators, gb_gens, res.diffs, kind, ring.p, "groebner")
        bad += C.check_frame(res.diffs, "resolve")
        levels = C.sample_columns(res.diffs, rng, per_level)
        bad += C.check_complex(res.diffs, ring.p, levels, "resolve")
        bad += C.check_leads(res.diffs, kind, levels, "resolve")
        bad += C.check_tables([m.twists for m in res.modules], ring.nvars,
                              gb_gens, nm, mn)
        if self.paper_tables is not None:
            if nm != self.paper_tables[0]:
                bad.append(("betti_nonminimal", "non-minimal table is not Table 6"))
            if mn != self.paper_tables[1]:
                bad.append(("betti_minimal", "minimal table is not Table 4"))
        codim = ring.nvars
        if not C.centrally_symmetric(mn, codim, codim + d):
            bad.append(("betti_minimal", "minimal table is not centrally symmetric"))
        if "text" in out:
            bad += C.check_serialized(out["text"], res, "serialize")
        if "mres" in out:
            mres = out["mres"]
            if C.table_from_twists([m.twists for m in mres.modules]) != mn:
                bad.append(("minimize", "Betti table of the minimized resolution "
                                        "!= minimal table"))
            if C.has_unit_entry(mres.diffs):
                bad.append(("minimize", "minimized resolution has a unit entry"))
            bad += C.check_complex(mres.diffs, ring.p,
                                   C.sample_columns(mres.diffs, rng,
                                                    MINIMIZED_PER_LEVEL),
                                   "minimize")
        if "replays" in out:
            bad += check_replays(out, kind, ring.p, rng, per_level)
        return bad

    def metrics(self, rounds, traced, setup_tr):
        first = rounds[0]
        m = {}
        if traced:
            m.update(layer_metrics(rounds, setup_tr))
            m["pipeline.betti_s"] = (betti_s(rounds), "s")
            return m
        m.update(count_metrics([first["ctr"]["tree"]]))
        return m


class CorpusWorkload:
    """The test suite's 200 seeded random homogeneous ideals, each taken
    through the whole pipeline: Groebner basis, reduce/hybrid/tree
    resolutions, both Betti tables and minimize."""

    size = 200
    setup_stages = ()

    @staticmethod
    def params(seed):
        """The parameter stream of the test suite's corpus fixture."""
        rng = random.Random(10_000 + seed)
        nv = rng.choice([2, 2, 3, 3, 3, 4])
        ng = rng.randrange(2, 6)
        degs = [rng.choice([1, 2, 2, 2, 3, 3]) for _ in range(ng)]
        kind = rng.choice(["dp", "dp", "lp"])
        return rng, nv, degs, kind, seed % 5 == 0

    def setup(self, tr):
        inputs = []
        for seed in range(self.size):
            rng, nv, degs, kind, monomial = self.params(seed)
            base = BaseOrdering(kind, nv)
            if monomial:
                ring = Ring(32003, tuple(f"x{i}" for i in range(nv)))
                gens = [{(rng.choice(monomials_of_degree(nv, d, base)), 0): 1}
                        for d in degs]
            else:
                ring, gens = tr.call("examples_gen.gen_random_homogeneous",
                                     gen_random_homogeneous, nv, degs, 32003, seed)
            text = tr.call("cli.serialize_input", serialize_input,
                           InputDocument(ring, base, gens))
            inputs.append((seed, gens, tr.call("cli.parse_input", parse_input, text)))
        return inputs

    def run_round(self, inputs, tr, traced):
        outs = []
        for seed, _, doc in inputs:
            gens, ring, base = doc.generators, doc.ring, doc.ordering
            out = {"seed": seed, "res": {}, "ctr": {}}
            with tr.span("ideal"):
                gb = out["gb"] = tr.call("groebner.buchberger", buchberger,
                                         gens, ring, base)
                for alg in ALGS:
                    ctr = out["ctr"][alg] = OpCounters()
                    out["res"][alg] = tr.call(f"resolution.resolve.{alg}", resolve,
                                              gens, ring, base, alg=alg,
                                              counters=ctr, gb=gb)
                tree = out["res"]["tree"]
                out["nm"] = tr.call("resolution.betti_nonminimal",
                                    betti_nonminimal, tree)
                out["mn"] = tr.call("resolution.betti_minimal",
                                    betti_minimal_from_nonminimal, tree)
                out["mres"] = tr.call("resolution.minimize", minimize, tree)
            if traced:
                out["text"] = tr.call("cli.serialize_resolution",
                                      serialize_resolution, tree)
                trace_round(out, ring, base, ALGS, tr, check_complex=True)
            outs.append(out)
        return {"ideals": outs}

    def attempted(self, rounds):
        """Ideals resolved and checked."""
        return self.size * rounds

    def check(self, inputs, rnd, rng, per_level):
        """Failures as (ideal seed, message) pairs."""
        bad = []
        for (seed, gens, doc), out in zip(inputs, rnd["ideals"]):
            ring, kind, p = doc.ring, doc.ordering.kind, doc.ring.p
            tree = out["res"]["tree"]
            fails = []
            if doc.generators != gens:
                fails.append("parsed generators differ from the generated ones")
            fails += [m for _, m in C.check_gb(doc.generators, out["gb"].gens,
                                               tree.diffs, kind, p, "")]
            leads = None
            for alg in ALGS:
                diffs = out["res"][alg].diffs
                everything = C.all_columns(diffs)
                fails += [f"{alg}: {m}" for _, m in
                          C.check_complex(diffs, p, everything, "")
                          + C.check_leads(diffs, kind, everything, "")]
                if leads is None:
                    leads = C.lead_terms(diffs)
                elif C.lead_terms(diffs) != leads:
                    fails.append(f"{alg}: leading terms differ from reduce")
            fails += [m for _, m in C.check_frame(tree.diffs, "")]
            mn = out["mn"].data
            fails += [m for _, m in C.check_tables([t.twists for t in tree.modules],
                                                   ring.nvars, out["gb"].gens,
                                                   out["nm"].data, mn)]
            mres = out["mres"]
            if C.table_from_twists([t.twists for t in mres.modules]) != mn:
                fails.append("Betti table of the minimized resolution != "
                             "minimal table")
            if C.has_unit_entry(mres.diffs):
                fails.append("minimized resolution has a unit entry")
            fails += [m for _, m in C.check_complex(mres.diffs, p,
                                                    C.all_columns(mres.diffs), "")]
            if "text" in out:
                fails += [m for _, m in C.check_serialized(out["text"], tree, "")]
            if "replays" in out:
                fails += [m for _, m in check_replays(out, kind, p, rng, per_level)]
            bad += [(seed, m) for m in fails]
        return bad

    def metrics(self, rounds, traced, setup_tr):
        if traced:
            m = layer_metrics(rounds, setup_tr)
            lat = sorted(s["seconds"] * 1e3 for r in rounds for s in r["tracer"].spans
                         if s["name"] == "ideal")
            m["pipeline.betti_s"] = (betti_s(rounds), "s")
            m["pipeline.ideal_p50_ms"] = (statistics.median(lat), "ms")
            m["pipeline.ideal_p95_ms"] = (nearest_rank(lat, 0.95), "ms")
            return m
        return count_metrics([o["ctr"]["tree"] for o in rounds[0]["ideals"]])


WORKLOADS = {
    "agr42": AgrWorkload(AgrSpec(n=6, d=5, s=42, p=10007, seed=0), "serialize",
                         ("tree", "hybrid"), (C.PAPER_TABLE6, C.PAPER_TABLE4)),
    "agr-min": AgrWorkload(AgrSpec(n=5, d=4, s=12, p=10007, seed=0), "minimize",
                           ALGS, None),
    "corpus200": CorpusWorkload(),
}

# Columns per level whose lifting or complex property is checked on the AGR
# resolutions; checking every column takes half a minute on either AGR
# workload.  Minimized columns are ten times denser, so fewer are sampled.
PER_LEVEL = 16
MINIMIZED_PER_LEVEL = 3


# ---------------------------------------------------------------------------
# the traced part of a round


def trace_round(out, ring, base, algs, tr, check_complex):
    """Replay resolve level by level for each strategy, and time the
    verification helpers the program offers."""
    out["replays"] = {alg: replay_resolve(out["gb"], ring, base, alg, tr)
                      for alg in algs}
    out["hilbert"] = tr.call("resolution.hilbert_numerator", hilbert_numerator,
                             out["gb"].lms, ring.nvars)
    if check_complex:
        out["check_complex"] = tr.call("resolution.check_complex",
                                       out["res"]["tree"].check_complex)


def check_replays(out, kind, p, rng, per_level):
    """The tree replay reproduces resolve() exactly, counters included; the
    other strategies give the same leading terms and are complexes."""
    bad = []
    res, ctr = out["res"]["tree"], out["ctr"]["tree"]
    diffs = res.diffs
    for alg, rp in out["replays"].items():
        if alg == "tree":
            if rp.diffs != diffs or rp.twists != [m.twists for m in res.modules]:
                bad.append(("resolve", "tree replay differs from resolve()"))
            if rp.counters.as_dict() != ctr.as_dict():
                bad.append(("resolve", "tree replay counters differ from resolve()"))
            continue
        if C.lead_terms(rp.diffs) != C.lead_terms(diffs):
            bad.append(("resolve", f"{alg} replay leading terms differ from tree"))
        levels = C.sample_columns(rp.diffs, rng, per_level)
        bad += C.check_complex(rp.diffs, p, levels, "resolve")
        bad += C.check_leads(rp.diffs, kind, levels, "resolve")
    if C.euler(out["nm"].data) != out["hilbert"]:
        bad.append(("betti_nonminimal", "hilbert_numerator != Euler characteristic"))
    if out.get("check_complex") is False:
        bad.append(("resolve", "Resolution.check_complex() is False"))
    return bad


# ---------------------------------------------------------------------------
# metrics


def med(rounds, *names):
    """Median over rounds of the summed span time of the given names."""
    return statistics.median(sum(r["tracer"].total(n) for n in names)
                             for r in rounds)


def betti_s(rounds):
    """resolve() with its own Groebner basis, plus the minimal Betti table."""
    return med(rounds, "groebner.buchberger", "resolution.resolve.tree",
               "resolution.betti_minimal")


def nearest_rank(sorted_vals, q):
    """The q-quantile by nearest rank: for 200 samples and q = 0.95, the
    190th, which has ten samples above it."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def count_metrics(ctrs):
    return {"mult": (sum(c.n_mult for c in ctrs), "count"),
            "add": (sum(c.n_add for c in ctrs), "count"),
            "terms": (sum(c.n_terms for c in ctrs), "count")}


def _outs(rnd):
    return rnd["ideals"] if "ideals" in rnd else [rnd]


def layer_metrics(rounds, setup_tr):
    """Per-layer metrics of a traced run: stage times are medians over
    rounds; counts and per-level times come from the first round (counts
    repeat exactly)."""
    m = {}
    tr0 = rounds[0]["tracer"]
    m["examples_gen.generate_s"] = (
        setup_tr.total("examples_gen.gen_agr")
        + setup_tr.total("examples_gen.gen_random_homogeneous"), "s")
    m["cli.parse_input_s"] = (setup_tr.total("cli.parse_input"), "s")
    outs = _outs(rounds[0])
    m["cli.serialize_resolution_s"] = (med(rounds, "cli.serialize_resolution"), "s")
    m["cli.resolution_bytes"] = (sum(len(o["text"].encode()) for o in outs), "bytes")
    m["groebner.buchberger_s"] = (med(rounds, "groebner.buchberger"), "s")
    m["groebner.buchberger_max_s"] = (statistics.median(
        max(s["seconds"] for s in r["tracer"].spans
            if s["name"] == "groebner.buchberger") for r in rounds), "s")
    m["groebner.gb_size"] = (sum(len(o["gb"].gens) for o in outs), "count")
    m["frame.lead_syz_s"] = (sum(s["seconds"] for s in tr0.spans
                                 if s["name"] == "frame.lead_syz"
                                 and tr0.spans[s["parent"]]["name"] == "resolve.tree"),
                           "s")
    m["frame.terms"] = (sum(o["replays"]["tree"].n_lifts for o in outs), "count")
    algs = [a for a in ALGS if a in outs[0]["replays"]]
    for alg in algs:
        m[f"lift.{alg}_s"] = (med(rounds, f"lift.{alg}"), "s")
        ctrs = [o["replays"][alg].counters for o in outs]
        for field, attr in (("mult", "n_mult"), ("add", "n_add"), ("canc", "n_canc")):
            m[f"lift.{alg}.{field}"] = (sum(getattr(c, attr) for c in ctrs), "count")
        if alg == "reduce":
            m["lift.reduce.mon_cmp"] = (sum(c.n_monomial_cmp for c in ctrs), "count")
    hits = sum(o["replays"]["tree"].cache_hits for o in outs)
    exps = sum(o["replays"]["tree"].cache_expansions for o in outs)
    m["lift.tree.cache_hits"] = (hits, "count")
    m["lift.tree.cache_expansions"] = (exps, "count")
    m["lift.tree.cache_hit_ratio"] = (hits / (hits + exps), "ratio")
    levels = dict.fromkeys(range(2, 5), 0.0)
    for o in outs:
        for i, t in enumerate(o["res"]["tree"].level_times):
            levels[i + 2] = levels.get(i + 2, 0.0) + t
    for k, t in sorted(levels.items()):
        m[f"resolution.level_s.{k}"] = (t, "s")
    m["resolution.betti_min_s"] = (med(rounds, "resolution.betti_minimal"), "s")
    if "mres" in outs[0]:
        m["resolution.minimize_s"] = (med(rounds, "resolution.minimize"), "s")
    res_list = [o["res"]["tree"] for o in outs]
    terms = sum(o["ctr"]["tree"].n_terms for o in outs)
    entries = sum(r.entry_count(k) for r in res_list for k in range(2, r.length + 1))
    m["resolution.terms"] = (terms, "count")
    m["resolution.q_sparse"] = (terms / entries, "ratio")
    if "check_complex" in outs[0]:
        m["resolution.check_complex_s"] = (med(rounds, "resolution.check_complex"), "s")
    m["resolution.hilbert_numerator_s"] = (med(rounds, "resolution.hilbert_numerator"), "s")
    untraced = betti_s(rounds)
    traced = med(rounds, "groebner.buchberger", "resolve.tree",
                 "resolution.betti_minimal")
    m["trace.betti_s"] = (traced, "s")
    m["trace.overhead_s"] = (traced - untraced, "s")
    return m


# ---------------------------------------------------------------------------
# entry point


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    src = (ROOT / "src").resolve()
    if src not in Path(syzkit.__file__).resolve().parents:
        sys.exit(f"syzkit was imported from {syzkit.__file__}, not from {src}")
    wl = WORKLOADS[args.workload]
    setup_tr = Tracer()
    inputs = wl.setup(setup_tr)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    traced = bool(args.trace)
    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < args.seconds:
        tr = Tracer()
        with tr.span("round"):
            rnd = wl.run_round(inputs, tr, traced)
        rnd["tracer"] = tr
        rounds.append(rnd)
        if len(rounds) == 1:
            # later rounds keep earlier outputs alive for the checks, so
            # the peak is taken after the first round only
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    rng = random.Random(args.seed)
    failed = set()
    for r, rnd in enumerate(rounds):
        for unit, msg in wl.check(inputs, rnd, rng, PER_LEVEL):
            print(f"CHECK FAILED round {r} [{unit}]: {msg}", file=sys.stderr)
            failed.add(unit if unit in wl.setup_stages else (r, unit))
    attempted = wl.attempted(len(rounds))

    metrics = wl.metrics(rounds, traced, setup_tr)
    if not traced:
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        # too unsteady on a shared host to carry a bound; shown, not reported
        print(f"betti_s {betti_s(rounds):.6g} s (no bound)", file=sys.stderr)
    else:
        write_trace(args, setup_tr, rounds)
    result = {"correct": not failed, "attempted": attempted, "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if not failed else 1


def write_trace(args, setup_tr, rounds):
    """Write the spans of a traced run to out/ beside this file."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    data = {"setup": setup_tr.spans,
            "rounds": [r["tracer"].spans for r in rounds]}
    path.write_text(json.dumps(data))


if __name__ == "__main__":
    sys.exit(main())

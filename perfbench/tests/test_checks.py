"""The workload checks accept correct outputs and reject corrupted ones.

Each workload's check runs on small instances through the same code path
the benchmark uses: one coefficient of one differential changed, one Betti
number off by one, or one Groebner basis element dropped must each be
reported, so a check that always passes cannot slip in.

    python3 -m pytest perfbench/tests
"""

import copy
import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import worker as W  # noqa: E402
from replay import Tracer  # noqa: E402
from syzkit.examples_gen import AgrSpec  # noqa: E402

EVERY_COLUMN = 10 ** 6


def small_workloads():
    corpus = W.CorpusWorkload()
    corpus.size = 12
    return {
        "agr42": W.AgrWorkload(AgrSpec(n=3, d=3, s=5, p=10007, seed=0),
                               "serialize", ("tree", "hybrid"), None),
        "agr-min": W.AgrWorkload(AgrSpec(n=3, d=4, s=6, p=10007, seed=0),
                                 "minimize", W.ALGS, None),
        "corpus200": corpus,
    }


@pytest.fixture(scope="module", params=["agr42", "agr-min", "corpus200"])
def run(request):
    wl = small_workloads()[request.param]
    inp = wl.setup(Tracer())
    tr = Tracer()
    out = wl.run_round(inp, tr, traced=True)
    out["tracer"] = tr
    return wl, inp, out


def failures(wl, inp, out):
    """Messages of the failed checks."""
    return [msg for _, msg in wl.check(inp, out, random.Random(0), EVERY_COLUMN)]


def target(out):
    """The outputs of one ideal: the AGR round itself, or the corpus ideal
    with the longest resolution."""
    if "ideals" not in out:
        return out
    return max(out["ideals"], key=lambda t: t["res"]["tree"].length)


def test_correct_outputs_pass(run):
    wl, inp, out = run
    assert failures(wl, inp, out) == []
    metrics = wl.metrics([out], False, Tracer())
    assert all(v > 0 for v, _ in metrics.values())
    assert "lift.tree.cache_hits" in wl.metrics([out], True, Tracer())


def test_every_listed_metric_is_measured(run):
    """Each workload measures every metric BENCHMARK.json lists, in its unit;
    the worker adds setup_s and peak_rss_mb itself."""
    wl, inp, out = run
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for traced, key in ((False, "end_to_end"), (True, "per_layer")):
        got = {k: u for k, (_, u) in wl.metrics([out], traced, Tracer()).items()}
        if not traced:
            got.update(setup_s="s", peak_rss_mb="MB")
        want = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: got.get(k) for k in want} == want


def test_changed_coefficient_is_rejected(run):
    wl, inp, out = run
    out = copy.deepcopy(out)
    res = target(out)["res"]["tree"]
    col = res.diffs[2][0]
    mm = list(col)[-1]
    col[mm] = col[mm] % (res.ring.p - 1) + 1
    bad = failures(wl, inp, out)
    assert any("!= 0" in m for m in bad), bad


def test_betti_number_off_by_one_is_rejected(run):
    wl, inp, out = run
    for table in ("nm", "mn"):
        changed = copy.deepcopy(out)
        data = target(changed)[table].data
        kj = max(data)
        data[kj] += 1
        bad = failures(wl, inp, changed)
        assert any("Euler characteristic" in m for m in bad), (table, bad)


def test_dropped_groebner_element_is_rejected(run):
    wl, inp, out = run
    t = target(out)
    if "ideals" in out:
        out = dict(out, ideals=[dict(o) if o is t else o for o in out["ideals"]])
        t = target(out)
    else:
        out = t = dict(out)
    gb = t["gb"]
    t["gb"] = SimpleNamespace(gens=gb.gens[:-1], lms=gb.lms[:-1])
    bad = failures(wl, inp, out)
    assert any("Hilbert" in m or "reduce to 0" in m for m in bad), bad

"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The random-ideal corpus
(200 seeded homogeneous ideals, n <= 4, degrees <= 3, <= 5 generators over
F_32003) is shared with the unit tests via the session fixture.
"""

import sys
import time

from syzkit.algebra import OpCounters, mono_div, mono_divides, mono_lcm
from syzkit.orderings import BaseOrdering
from syzkit.frame import lead_syz
from syzkit.lift import (
    SubtreeCache,
    lift_frame_terms,
    lift_hybrid,
    lift_reduce,
    lift_tree,
)
from syzkit.resolution import (
    BettiTable,
    betti_minimal_from_nonminimal,
    betti_nonminimal,
    hilbert_numerator,
    minimize,
    resolve,
)
from syzkit.examples_gen import AgrSpec, gen_agr
from syzkit.cli import emit_image, main

from oracles import betti_add


def _report(num: int, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d}: {status}  {detail}", file=sys.stderr)
    assert ok, f"acceptance criterion {num} failed: {detail}"


def test_acceptance_01_worked_example_golden(sec5):
    G = sec5.gb
    lv = lead_syz(G.lms, sec5.base, G.degrees)
    ok = lv.terms == sec5.frame_terms
    for fn in (lift_reduce, lift_hybrid,
               lambda s, g, c: lift_tree(s, g, SubtreeCache(), c)):
        ok &= fn(sec5.frame_terms[0], G, None) == sec5.syz1
        ok &= fn(sec5.frame_terms[1], G, None) == sec5.syz2
    res = resolve(sec5.gens, sec5.ring, sec5.base, alg="tree")
    ok &= [m.rank for m in res.modules] == [1, 3, 2]
    ok &= res.minimal
    # runtime of the syzygy kernel (frame + all six liftings), best of 20
    best = float("inf")
    for _ in range(20):
        t0 = time.perf_counter()
        lead_syz(G.lms, sec5.base, G.degrees)
        for s in sec5.frame_terms:
            lift_reduce(s, G, None)
            lift_hybrid(s, G, None)
        cache = SubtreeCache()
        for s in sec5.frame_terms:
            lift_tree(s, G, cache, None)
        best = min(best, time.perf_counter() - t0)
    ok &= best < 1e-3
    _report(1, ok, f"kernel best-of-20: {best * 1e6:.0f}us")


def test_acceptance_02_cache_behavior(sec5):
    cache = SubtreeCache()
    lift_tree(sec5.frame_terms[0], sec5.gb, cache, None)
    hits0, exp0 = cache.hits, cache.expansions
    out = lift_tree(sec5.frame_terms[1], sec5.gb, cache, None)
    ok = (out == sec5.syz2 and cache.hits - hits0 == 1
          and cache.expansions - exp0 == 0)
    _report(2, ok, f"hits +{cache.hits - hits0}, expansions +{cache.expansions - exp0}")


def test_acceptance_03_lifting_contract_corpus(corpus):
    ok = True
    n_terms_checked = 0
    for entry in corpus:
        G = entry.gb
        algs = ("reduce", "hybrid", "tree")
        lead_sets = {}
        for alg in algs:
            res = entry.resolutions[alg]
            ok &= res.check_complex()
            per_level = []
            for k in range(2, res.length + 1):
                cols = res.diffs[k - 1]
                frame_terms = [next(iter(c)) for c in cols]
                per_level.append(frozenset(frame_terms))
                prev = res.diffs[k - 2]
                p = entry.ring.p
                for col, s in zip(cols, frame_terms):
                    # psi(lift) = 0 against the previous level's generators
                    acc = {}
                    from syzkit.algebra import term_times_vector, vec_iadd_scaled
                    for (m, i), c in col.items():
                        vec_iadd_scaled(acc, c, term_times_vector(m, prev[i]),
                                        p, None)
                    ok &= acc == {}
                    ok &= col[s] == 1
                    n_terms_checked += 1
            lead_sets[alg] = per_level
        ok &= lead_sets["reduce"] == lead_sets["hybrid"] == lead_sets["tree"]
        if not ok:
            break
    _report(3, ok, f"{len(corpus)} ideals, {n_terms_checked} liftings")


def test_acceptance_04_oracle_equivalence(corpus):
    ok = True
    for entry in corpus:
        G = entry.gb
        if len(G.gens) < 2:
            continue
        ext = G.chain.extend(G.lms)
        key = ext.key_fn(1)
        terms = lead_syz(G.lms, G.chain.base, G.degrees).terms
        schreyer_leads = {max(s, key=key)
                          for s in lift_frame_terms(terms, G, ext, "reduce")}
        for alg in ("hybrid", "tree"):
            leads = {max(s, key=key)
                     for s in lift_frame_terms(terms, G, ext, alg)}
            ok &= leads == schreyer_leads
        # brute force: all-pairs leading syzygy terms, minimalized
        brute = set()
        for i in range(len(G.lms)):
            for j in range(i):
                if G.lms[i][1] == G.lms[j][1]:
                    lcm = mono_lcm(G.lms[i][0], G.lms[j][0])
                    brute.add((mono_div(lcm, G.lms[i][0]), i))
        minimal = {t for t in brute
                   if not any(s != t and s[1] == t[1]
                              and mono_divides(s[0], t[0]) for s in brute)}
        lv = lead_syz(G.lms, entry.base, G.degrees)
        ok &= set(lv.terms) == minimal == schreyer_leads
        if not ok:
            break
    _report(4, ok, f"{len(corpus)} ideals")


def test_acceptance_05_hilbert_consistency(corpus):
    ok = True
    for entry in corpus:
        G = entry.gb
        res = entry.resolutions["tree"]
        num = hilbert_numerator(G.lms, entry.ring.nvars)
        ok &= betti_nonminimal(res).euler() == num
        ok &= betti_minimal_from_nonminimal(res).euler() == num
        if not ok:
            break
    _report(5, ok, f"{len(corpus)} ideals, both tables")


def test_acceptance_06_minimization_crosscheck(corpus):
    ok = True
    for entry in corpus:
        res = entry.resolutions["tree"]
        mres = minimize(res)
        ok &= betti_nonminimal(mres) == betti_minimal_from_nonminimal(res)
        ok &= mres.check_complex()
        if not ok:
            break
    _report(6, ok, f"{len(corpus)} resolutions")


TABLE3 = BettiTable({(0, 0): 1, (1, 2): 10, (2, 3): 4, (2, 4): 60,
                     (3, 5): 136, (4, 6): 130, (5, 7): 60, (6, 8): 11,
                     (1, 4): 11, (2, 5): 60, (3, 6): 130, (4, 7): 136,
                     (5, 8): 60, (5, 9): 4, (6, 10): 10, (7, 12): 1})

TABLE4 = BettiTable({(0, 0): 1, (1, 3): 56, (2, 4): 189, (3, 5): 216,
                     (4, 7): 216, (5, 8): 189, (6, 9): 56, (7, 12): 1})

TABLE6 = BettiTable({(0, 0): 1,
                     (1, 3): 56, (2, 4): 210, (3, 5): 336, (4, 6): 280,
                     (5, 7): 120, (6, 8): 21,
                     (1, 4): 21, (2, 5): 126, (3, 6): 315, (4, 7): 420,
                     (5, 8): 315, (6, 9): 126, (7, 10): 21,
                     (1, 5): 6, (2, 6): 36, (3, 7): 90, (4, 8): 120,
                     (5, 9): 90, (6, 10): 36, (7, 11): 6,
                     (1, 6): 1, (2, 7): 6, (3, 8): 15, (4, 9): 20,
                     (5, 10): 15, (6, 11): 6, (7, 12): 1})


def _agr_resolution(s, seed):
    ideal = gen_agr(AgrSpec(n=6, d=5, s=s, p=10007, seed=seed))
    base = BaseOrdering("dp", 7)
    ctr = OpCounters()
    res = resolve(ideal.generators, ideal.ring, base, alg="tree", counters=ctr)
    return res, ctr


def _with_retries(s, check):
    last = None
    for seed in range(3):  # genericity caveat: up to three seeds
        res, ctr = _agr_resolution(s, seed)
        last = check(res, ctr)
        if last is None:
            return seed
    raise AssertionError(last)


def test_acceptance_07_agr_tables():
    details = []

    def check18(res, ctr):
        mn = betti_minimal_from_nonminimal(res)
        if mn != TABLE3:
            return f"s=18 minimal table mismatch: {mn.totals()}"
        return None

    def check42(res, ctr):
        nm = betti_nonminimal(res)
        mn = betti_minimal_from_nonminimal(res)
        if nm != TABLE6:
            return f"s=42 non-minimal table mismatch: {nm.totals()}"
        if mn != TABLE4:
            return f"s=42 minimal table mismatch: {mn.totals()}"
        if not (ctr.n_canc <= ctr.n_add):
            return "cancellation count exceeds addition count"
        details.append(f"s=42 stats: #Terms={ctr.n_terms} #Mult={ctr.n_mult} "
                       f"#Add={ctr.n_add} #Canc={ctr.n_canc}")
        return None

    t0 = time.perf_counter()
    _with_retries(18, check18)
    _with_retries(42, check42)
    elapsed = time.perf_counter() - t0
    _report(7, True, f"Tables 3/4/6 reproduced in {elapsed:.1f}s; "
                     + "; ".join(details))


def test_acceptance_08_agr_family_formula():
    # the family formula holds for s >= 28 (seed 0 matches it at every s
    # from 28 to 42); at s = 26 and 27, 28 - s quadrics appear and it does
    # not apply (ROADMAP item 10)
    def expected(s):
        a = max(0, 189 - 6 * s)       # 6*(31.5 - s)
        b = max(0, 15 * (36 - s))
        g = max(0, 20 * (42 - s))
        corr = {}
        for col, v in zip(range(2, 7), (a, b, g, b, a)):
            if v:
                corr[(col, col + 2)] = corr.get((col, col + 2), 0) + v
        for col, v in zip(range(1, 6), (a, b, g, b, a)):
            if v:
                corr[(col, col + 3)] = corr.get((col, col + 3), 0) + v
        return betti_add(TABLE4, BettiTable(corr))

    t0 = time.perf_counter()
    for s in (30, 36):
        exp = expected(s)

        def check(res, ctr, exp=exp, s=s):
            mn = betti_minimal_from_nonminimal(res)
            if mn != exp:
                return f"s={s}: got totals {mn.totals()}, expected {exp.totals()}"
            return None

        _with_retries(s, check)
    _report(8, True, f"s in {{30, 36}} in {time.perf_counter() - t0:.1f}s")


def test_acceptance_09_gorenstein_symmetry():
    ok = True
    checked = 0
    for (n, d, s, seed) in [(2, 2, 2, 0), (2, 3, 3, 1), (2, 4, 4, 2),
                            (3, 2, 3, 3), (3, 3, 5, 4), (3, 4, 7, 5)]:
        ideal = gen_agr(AgrSpec(n=n, d=d, s=s, p=10007, seed=seed))
        base = BaseOrdering("dp", n + 1)
        res = resolve(ideal.generators, ideal.ring, base, alg="tree")
        mn = betti_minimal_from_nonminimal(res)
        c = n + 1
        sigma = d + c
        mirrored = BettiTable({(c - k, sigma - j): v
                               for (k, j), v in mn.data.items()})
        ok &= mirrored == mn
        checked += 1
        if not ok:
            break
    _report(9, ok, f"{checked} AGR instances centrally symmetric")


def test_acceptance_10_image_export(sec5, tmp_path):
    res = resolve(sec5.gens, sec5.ring, sec5.base)
    path = tmp_path / "phi2.pgm"
    emit_image(res, 2, str(path))
    data = path.read_bytes()
    expected = b"P5\n2 3\n255\n" + bytes([0, 128, 0, 128, 0, 0])
    _report(10, data == expected, f"{len(data)} bytes, header P5 2x3")


def test_acceptance_11_determinism(tmp_path, capsys):
    inp = tmp_path / "in.txt"
    inp.write_text("ring 32003 w,x,y,z lp\n"
                   "w*x+w*z+x^2+2*x*z-z^2\n"
                   "w*y-w*z-x*z-y*z-2*z^2\n"
                   "x*y+z^2\n")

    def run(tag):
        out = tmp_path / f"r{tag}.txt"
        img = tmp_path / f"i{tag}"
        code = main(["resolve", str(inp), "--betti", "both", "--stats",
                     "--output", str(out), "--image", str(img)])
        assert code == 0
        stdout = capsys.readouterr().out
        # wall times: the lines holding "time" (the summary line and the
        # --stats table header) are dropped, and so is the last field of
        # each per-differential row, which follows the "#Generators" header
        stable, rows = [], False
        for ln in stdout.splitlines():
            if rows:
                ln = ln.rpartition(" ")[0]
            rows = rows or "#Generators" in ln
            if "time" not in ln:
                stable.append(ln)
        return stable, out.read_text(), (tmp_path / f"i{tag}_phi2.pgm").read_bytes()

    ok = run("a") == run("b")  # byte-identical, stats included
    _report(11, ok, "two runs byte-identical, stats included")

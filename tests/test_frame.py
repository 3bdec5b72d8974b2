import itertools
import random

import pytest

from syzkit.algebra import Ring, mono_div, mono_divides, mono_lcm, mono_mul
from syzkit.orderings import BaseOrdering
from syzkit.groebner import buchberger, monomials_of_degree
from syzkit.frame import FrameLevel, build_frame, lead_syz
from syzkit.lift import lift_frame_terms
from syzkit.resolution import BettiTable, betti_nonminimal
from syzkit.cli import main, parse_input

from conftest import SEC5_TEXT


def test_lead_syz_sec5(sec5):
    lv = lead_syz(sec5.gb.lms, sec5.base, sec5.gb.degrees)
    assert lv.terms == [sec5.mm("x", 2), sec5.mm("w", 3)]
    assert lv.degrees == [3, 3]


def test_lead_syz_small_cases():
    ring = Ring(7, ("x", "y"))
    base = BaseOrdering("lp", 2)
    x, y = ring.mono([1, 0]), ring.mono([0, 1])
    assert lead_syz([(x, 0)], base, [1]).terms == []
    lv = lead_syz([(x, 0), (y, 0)], base, [1, 1])
    assert lv.terms == [(x, 1)] and lv.degrees == [2]


def test_lead_syz_is_order_sensitive():
    # the minimal generating set depends on the generator order; both of
    # these are correct for their respective input orders
    ring = Ring(7, ("x", "y"))
    base = BaseOrdering("dp", 2)
    x2, xy, y2 = ring.mono([2, 0]), ring.mono([1, 1]), ring.mono([0, 2])
    x, y = ring.mono([1, 0]), ring.mono([0, 1])
    lv = lead_syz([(x2, 0), (xy, 0), (y2, 0)], base, [2, 2, 2])
    assert lv.terms == [(x, 1), (x, 2)]
    lv_rev = lead_syz([(y2, 0), (xy, 0), (x2, 0)], base, [2, 2, 2])
    assert lv_rev.terms == [(y, 1), (y, 2)]
    assert len(lv.terms) == len(lv_rev.terms) == 2


def test_lead_syz_brute_force(corpus):
    # the module generated by the frame terms equals the leading module of
    # the all-pairs Schreyer syzygies, independently minimalized
    for entry in corpus[:40]:
        G = entry.gb
        lv = lead_syz(G.lms, entry.base, G.degrees)
        pairs = []
        for i in range(len(G.lms)):
            for j in range(i):
                if G.lms[i][1] != G.lms[j][1]:
                    continue
                lcm = mono_lcm(G.lms[i][0], G.lms[j][0])
                pairs.append((mono_div(lcm, G.lms[i][0]), i))
        minimal = []
        for t in sorted(set(pairs), key=lambda t: (t[0][0], t)):
            if not any(s[1] == t[1] and mono_divides(s[0], t[0]) for s in minimal):
                minimal.append(t)
        assert set(minimal) == set(lv.terms), f"seed {entry.seed}"


def test_frame_minimality_and_degrees(corpus):
    for entry in corpus[:40]:
        degrees = entry.gb.degrees
        for lv in build_frame(entry.gb):
            for a, b in itertools.combinations(lv.terms, 2):
                same = a[1] == b[1]
                assert not (same and mono_divides(a[0], b[0]))
                assert not (same and mono_divides(b[0], a[0]))
            for t, d in zip(lv.terms, lv.degrees):
                assert t[0][0] >= 1  # m_{ji} != 1 for a reduced basis
                assert d == t[0][0] + degrees[t[1]]
            degrees = lv.degrees


def test_build_frame_sec5(sec5):
    frame = build_frame(sec5.gb)
    assert len(frame) == 1
    assert frame[0].terms == [sec5.mm("x", 2), sec5.mm("w", 3)]
    # the two terms sit in different components: the next level is empty
    level = frame[0]
    assert lead_syz(level.terms, sec5.base, level.degrees).terms == []


def test_build_frame_single_gen():
    doc = parse_input("ring 7 x,y dp\nx\n")
    G = buchberger(doc.generators, doc.ring, doc.ordering)
    assert build_frame(G) == []


def test_build_frame_empty_basis():
    # resolve never builds the frame of the zero ideal, but build_frame is
    # exported: an empty basis has an empty frame
    doc = parse_input("ring 7 x,y dp\nx\n")
    G = buchberger([], doc.ring, doc.ordering)
    assert G.gens == () and build_frame(G) == []


def test_build_frame_matches_resolution(corpus):
    for entry in corpus:
        frame = build_frame(entry.gb)
        res = entry.resolutions["tree"]
        assert len(frame) == max(0, res.length - 1)
        for lv, cols in zip(frame, res.diffs[1:]):
            assert lv.terms == [next(iter(col)) for col in cols]
        # each level's basis extends its chain by one level, which holds
        # the descents of the leading terms of the level below
        G = entry.gb
        for cols in res.diffs[1:]:
            G = G.syzygy_basis(cols)
        chain = G.chain.extend(G.lms)
        assert len(chain.levels) == len(res.diffs)
        pms = tails = None
        for lev, cols in zip(chain.levels, res.diffs):
            lms = [next(iter(col)) for col in cols]
            if pms is None:
                pms = tuple(m for m, _ in lms)
                tails = tuple((-c,) for _, c in lms)
            else:
                pms = tuple(mono_mul(m, pms[c]) for m, c in lms)
                tails = tuple(tails[c] + (c,) for _, c in lms)
            assert (lev.path_monos, lev.tails) == (pms, tails)


def test_build_frame_hilbert_guard(sec5, monkeypatch, tmp_path, capsys):
    # a leading syzygy module that never runs dry must stop the frame at
    # the Hilbert syzygy bound, and main must report it as an internal error
    def endless(lms, base, degrees):
        return FrameLevel([(lms[0][0], 0)], [degrees[0]])

    monkeypatch.setattr("syzkit.frame.lead_syz", endless)
    with pytest.raises(RuntimeError, match="Hilbert syzygy bound"):
        build_frame(sec5.gb)
    inp = tmp_path / "in.txt"
    inp.write_text(SEC5_TEXT)
    assert main(["resolve", str(inp)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: internal: ")
    assert "Traceback" not in err


def _frame_betti(G):
    """The non-minimal Betti table read off G's frame: level 0 from the
    twists, level 1 from the generator degrees, level k+1 from the term
    degrees of frame level k."""
    levels = [G.twists, G.degrees]
    levels += [level.degrees for level in build_frame(G)]
    table: dict = {}
    for k, degrees in enumerate(levels):
        for d in degrees:
            table[(k, d)] = table.get((k, d), 0) + 1
    return BettiTable(table)


def test_frame_betti_sec5(sec5):
    table = _frame_betti(sec5.gb)
    assert table == BettiTable({(0, 0): 1, (1, 2): 3, (2, 3): 2})


def test_frame_betti_equals_nonminimal(corpus):
    for entry in corpus:
        assert _frame_betti(entry.gb) == betti_nonminimal(
            entry.resolutions["tree"])


def test_frame_lead_matches_syzygy_groebner_basis():
    # random small monomial bases: frame terms generate the same monomial
    # module as the leading terms of the computed syzygy Groebner basis
    rng = random.Random(3)
    for _ in range(10):
        nv = rng.choice([2, 3])
        ring = Ring(32003, tuple(f"x{i}" for i in range(nv)))
        base = BaseOrdering("dp", nv)
        gens = []
        seen = set()
        for _ in range(rng.randrange(2, 6)):
            m = rng.choice(monomials_of_degree(nv, rng.randrange(1, 4), base))
            if m not in seen:
                seen.add(m)
                gens.append({(m, 0): 1})
        G = buchberger(gens, ring, base)
        if len(G.gens) < 2:
            continue
        lv = lead_syz(G.lms, base, G.degrees)
        ext = G.chain.extend(G.lms)
        key = ext.key_fn(1)
        syz_leads = {max(s, key=key)
                     for s in lift_frame_terms(lv.terms, G, ext, "reduce")}
        assert set(lv.terms) == syz_leads

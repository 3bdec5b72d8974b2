import hashlib
import io
import os
import platform
import re
import subprocess
import sys
import time
import tracemalloc

import pytest

import syzkit
from syzkit import cli, resolution
from syzkit.algebra import Ring
from syzkit.examples_gen import AgrSpec, gen_agr
from syzkit.cli import (
    InputDocument,
    ParseError,
    emit_image,
    main,
    parse_input,
    parse_polynomial,
    serialize_input,
    serialize_resolution,
    stats_report,
)
from syzkit.algebra import OpCounters, vec_component
from syzkit.orderings import BaseOrdering
from syzkit.resolution import GradedFreeModule, Resolution, minimize, resolve

from conftest import make_corpus_entry
from oracles import poly_to_string

SEC5 = """ring 32003 w,x,y,z lp
w*x+w*z+x^2+2*x*z-z^2
w*y-w*z-x*z-y*z-2*z^2
x*y+z^2
"""


def test_parse_input_sec5(sec5):
    doc = parse_input(SEC5)
    assert doc.ring.p == 32003 and doc.ring.names == ("w", "x", "y", "z")
    assert doc.ordering.kind == "lp"
    assert doc.generators == sec5.gens


def test_parse_errors():
    with pytest.raises(ParseError, match="not prime"):
        parse_input("ring 4 x dp\nx\n")
    with pytest.raises(ParseError, match="unknown ordering"):
        parse_input("ring 7 x up\nx\n")
    with pytest.raises(ParseError):
        parse_input("x+y\n")  # missing ring line
    ring = Ring(7, ("x", "y"))
    with pytest.raises(ParseError, match="unexpected character"):
        parse_polynomial("x + q", ring)
    with pytest.raises(ParseError, match="dangling"):
        parse_polynomial("x^", ring)
    with pytest.raises(ParseError):
        parse_polynomial("", ring)
    # a name that is a number would read as a coefficient: "2*y" is 2*y
    with pytest.raises(ParseError, match="line 1.*invalid variable name '2'"):
        parse_input("ring 7 2,y dp\n2*y\n")
    # a name holding an operator would print ambiguously: x*y as x**y
    with pytest.raises(ParseError, match="line 1.*invalid variable name 'x\\*'"):
        parse_input("ring 7 x*,y dp\nx*y\n")
    assert parse_input("ring 7 _a,B_1,c2d dp\n").ring.names == ("_a", "B_1", "c2d")


def test_parse_coefficient_reduction():
    doc = parse_input("ring 7 x,y dp\nx^2 - 3y^2\n")
    ring = doc.ring
    assert doc.generators[0] == {(ring.mono([2, 0]), 0): 1,
                                 (ring.mono([0, 2]), 0): 4}


def test_parse_implicit_star():
    ring = Ring(32003, ("x", "z"))
    assert parse_polynomial("2xz", ring) == parse_polynomial("2*x*z", ring)
    assert parse_polynomial("x x", ring) == parse_polynomial("x^2", ring)


def test_poly_roundtrip(sec5):
    for g in sec5.gens:
        s = poly_to_string(vec_component(g, 0), sec5.ring, sec5.base)
        assert parse_polynomial(s, sec5.ring) == g
    assert poly_to_string({}, sec5.ring, sec5.base) == "0"


def test_input_document_roundtrip(sec5):
    doc = parse_input(SEC5)
    text = serialize_input(doc)
    doc2 = parse_input(text)
    assert serialize_input(doc2) == text
    assert doc2.generators == doc.generators


def parse_resolution(text):
    """Read back serialize_resolution output; the counters come back empty.
    A module line ends in its twists, or in '-' when the resolution is not
    graded (an empty list for a graded module of rank 0).  The resolution
    derives its graded and minimal flags; they must match the text's."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    _, _, p, names, kind = lines[0].split()
    ring = Ring(int(p), tuple(names.split(",")))
    base = BaseOrdering(kind, ring.nvars)
    flags, modules, diffs = {}, [], []
    for line in lines[1:]:
        parts = line.split()
        if parts[0] in ("graded", "minimal"):
            flags[parts[0]] = parts[1] == "true"
        elif parts[0] == "module":
            tw = parts[5] if len(parts) > 5 else ""
            twists = None if tw == "-" else [int(t) for t in tw.split(",") if t]
            modules.append(GradedFreeModule(int(parts[3]), twists))
        elif parts[0] == "differential":
            diffs.append([{} for _ in range(modules[int(parts[1])].rank)])
        elif parts[0] != "end":
            row, col = int(parts[0]) - 1, int(parts[1]) - 1
            for (m, _), c in parse_polynomial(" ".join(parts[2:]), ring).items():
                diffs[-1][col][(m, row)] = c
    res = Resolution(ring, base, modules, diffs, OpCounters())
    assert (res.graded, res.minimal) == (flags["graded"], flags["minimal"])
    return res


def test_resolution_roundtrip(sec5):
    res = resolve(sec5.gens, sec5.ring, sec5.base)
    text = serialize_resolution(res)
    res2 = parse_resolution(text)
    assert serialize_resolution(res2) == text
    assert res2.diffs == res.diffs
    assert [m.rank for m in res2.modules] == [1, 3, 2]


def test_resolution_roundtrip_ungraded():
    doc = parse_input("ring 7 x,y lp\nx^2+y\nx*y^2+x\n")
    res = resolve(doc.generators, doc.ring, doc.ordering)
    assert not res.graded
    text = serialize_resolution(res)
    res2 = parse_resolution(text)
    assert serialize_resolution(res2) == text
    assert res2.diffs == res.diffs


def serialize_per_component(res):
    """The former serializer: one vec_component scan per component."""
    ring, base = res.ring, res.base
    lines = [f"resolution ring {ring.p} {','.join(ring.names)} {base.kind}"]
    lines.append(f"graded {'true' if res.graded else 'false'}")
    lines.append(f"minimal {'true' if res.minimal else 'false'}")
    for k, mod in enumerate(res.modules):
        tw = ",".join(str(t) for t in mod.twists) if mod.twists is not None else "-"
        lines.append(f"module {k} rank {mod.rank} twists {tw}")
    for k in range(1, res.length + 1):
        lines.append(f"differential {k}")
        for j, col in enumerate(res.diffs[k - 1]):
            for comp in range(res.modules[k - 1].rank):
                entry = vec_component(col, comp)
                if entry:
                    lines.append(f"{comp + 1} {j + 1} "
                                 + poly_to_string(entry, ring, base))
    lines.append("end")
    return "\n".join(lines) + "\n"


def test_serialize_resolution_matches_per_component_loop(sec5):
    res = resolve(sec5.gens, sec5.ring, sec5.base)
    resolutions = [res, minimize(res)]
    for seed in (1, 2, 3, 4, 6, 11, 17):
        resolutions += make_corpus_entry(seed).resolutions.values()
    for res in resolutions:
        assert serialize_resolution(res) == serialize_per_component(res)


def test_main_print_resolution(tmp_path, capsys):
    inp = tmp_path / "in.txt"
    inp.write_text(SEC5)
    assert main(["resolve", str(inp), "--print-resolution"]) == 0
    out = capsys.readouterr().out
    assert "resolution ring 32003 w,x,y,z lp" in out
    assert out.rstrip().endswith("end")
    # with --output too, the file holds the same text as the printout
    path = tmp_path / "res.txt"
    assert main(["resolve", str(inp), "--print-resolution", "--minimize",
                 "--output", str(path)]) == 0
    text = path.read_text()
    assert text.startswith("resolution ring") and text.endswith("end\n")
    assert capsys.readouterr().out.endswith(text)


@pytest.mark.parametrize("case", ["sec5", "ungraded", "agr-5-4-12-minimized"])
def test_output_and_print_resolution_agree(case, tmp_path, capsys):
    # --output and --print-resolution consume one stream of pieces: the file,
    # the tail of stdout and serialize_resolution are the same text
    inp = tmp_path / "in.txt"
    flags = []
    if case == "sec5":
        inp.write_text(SEC5)
    elif case == "ungraded":
        inp.write_text("ring 7 x,y lp\nx^2+y\nx*y^2+x\n")
    else:
        assert main(["gen", "agr", "--n", "5", "--d", "4", "--s", "12",
                     "-o", str(inp)]) == 0
        flags = ["--minimize"]
    path = tmp_path / "res.txt"
    assert main(["resolve", str(inp), "--output", str(path),
                 "--print-resolution", *flags]) == 0
    out = capsys.readouterr().out
    doc = parse_input(inp.read_text())
    res = resolve(doc.generators, doc.ring, doc.ordering)
    text = serialize_resolution(minimize(res) if flags else res)
    assert ("twists -" in text) == (case == "ungraded")
    # compared as bytes: pytest reports a bytes mismatch without a line diff
    assert path.read_bytes() == text.encode("utf-8")
    assert out[out.index("resolution ring "):].encode("utf-8") == text.encode("utf-8")


@pytest.mark.skipif(platform.python_implementation() != "CPython",
                    reason="in-place growth of an unshared str is CPython's")
def test_serialize_resolution_holds_text_once(agr_5_4_12):
    # the serializer's allocation peak is the text plus small transients,
    # not its pieces beside their join (which peaks at about twice the text)
    res = agr_5_4_12[0]
    tracemalloc.start()
    try:
        text = serialize_resolution(res)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * len(text), peak / len(text)


def test_emit_image_sec5(sec5, tmp_path):
    res = resolve(sec5.gens, sec5.ring, sec5.base)
    path = tmp_path / "phi2.pgm"
    emit_image(res, 2, str(path))
    data = path.read_bytes()
    assert data == b"P5\n2 3\n255\n" + bytes([0, 128, 0, 128, 0, 0])
    path1 = tmp_path / "phi1.pgm"
    emit_image(res, 1, str(path1))
    header = path1.read_bytes().split(b"\n", 3)
    assert header[1] == b"3 1"


# sha256 of the PGM of each differential phi_1 ... phi_6 of the non-minimal
# AGR (5, 4, 12) resolution, as written by the count-table emit_image
AGR_5_4_12_IMAGE_DIGESTS = [
    "3deed34ad5f5f827a40f1c65f15b0ddf70e6e1c78c81028681b29b684ef6cef9",
    "41159af6fb7b24e4873088c2c40e103e68f9fad1adf0c5224bbbf5b9eac7a070",
    "410153847f684db7f310693456237f318602773c7ea8fe1000f233ee7e7274e4",
    "a81f832945d4ba6c3dcab9470396d0686682c208c442d4069e6e9020cc222f94",
    "f9446e5918d8e6e2fb93a9a1a54bbe25e083da71e8003c5590155b9626e3654f",
    "bb1dae30cc06f6ec0d37dd3730d03225a6d9ebce1fd501358c90d7f03da4c928",
]


def test_emit_image_agr_pinned(agr_5_4_12, tmp_path):
    res = agr_5_4_12[0]
    assert res.length == len(AGR_5_4_12_IMAGE_DIGESTS)
    for k, digest in enumerate(AGR_5_4_12_IMAGE_DIGESTS, start=1):
        path = tmp_path / f"phi{k}.pgm"
        emit_image(res, k, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, k


def test_stats_report(sec5):
    res = resolve(sec5.gens, sec5.ring, sec5.base)
    text = stats_report(res)
    assert "#Terms:   11" in text
    assert "Q_sparse: 1.833" in text
    empty = resolve([], sec5.ring, sec5.base)
    assert "Q_sparse: -" in stats_report(empty)


def test_main_resolve(tmp_path, capsys):
    inp = tmp_path / "in.txt"
    inp.write_text(SEC5)
    out = tmp_path / "res.txt"
    code = main(["resolve", str(inp), "--betti", "both", "--stats",
                 "--output", str(out), "--image", str(tmp_path / "img")])
    assert code == 0
    printed = capsys.readouterr().out
    assert "resolution length 2" in printed
    assert "minimal: yes" in printed
    assert (tmp_path / "img_phi2.pgm").exists()
    assert out.read_text().startswith("resolution ring 32003")


def test_main_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("ring 4 x dp\nx\n")
    assert main(["resolve", str(bad)]) == 2
    bad.write_text("ring 7 2,y dp\n2*y\n")
    capsys.readouterr()
    assert main(["resolve", str(bad)]) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error: line 1") and "Traceback" not in out.err
    inhom = tmp_path / "inhom.txt"
    inhom.write_text("ring 7 x,y dp\nx^2+y\n")
    assert main(["resolve", str(inhom), "--betti", "min"]) == 2
    assert main(["resolve", str(tmp_path / "missing.txt")]) == 2
    assert main(["bogus-command"]) == 1
    good = tmp_path / "good.txt"
    good.write_text(SEC5)
    assert main(["resolve", str(good), "--alg", "schreyer"]) == 1
    assert main(["resolve", str(good), "--threads", "2"]) == 1
    for removed in ("--verbose", "--stats-kv"):  # --stats prints it all
        capsys.readouterr()
        assert main(["resolve", str(good), "--stats", removed]) == 1
        out = capsys.readouterr()
        assert "usage error" in out.err and removed in out.err
        assert "Traceback" not in out.err and out.out == ""
    for order in ("input", "none"):  # one generator order, no flag
        capsys.readouterr()
        assert main(["resolve", str(good), "--reorder", order]) == 1
        out = capsys.readouterr()
        assert "usage error" in out.err and "--reorder" in out.err
        assert "Traceback" not in out.err and out.out == ""


@pytest.mark.parametrize("text, message", [
    ("ring 7 x,y dp\n2^3\n", "line 2, column 2: '^' without a variable"),
    ("ring 7 x,y dp\nx^y\n", "line 2, column 3: expected an exponent after '^'"),
    ("ring 7 x,y dp\nx^+1\n", "line 2, column 3: expected an exponent after '^'"),
    ("ring 7 x,y dp\n*x\n", "line 2, column 1: '*' without a left factor"),
    ("ring x7 x,y dp\nx\n", "line 1, column 1: invalid characteristic 'x7'"),
    ("", "missing ring declaration"),
    ("# no ring here\n\n   # nor here\n", "missing ring declaration"),
    ("ring 7 x,y dp\nx^40000\n",
     "line 2, column 3: exponent 40000 out of range [0, 32768]"),
    ("ring 7 x,,y dp\nx\n", "line 1, column 1: invalid variable name ''"),
    ("ring 7 x,y, dp\nx\n", "line 1, column 1: invalid variable name ''"),
], ids=["caret-after-number", "caret-then-variable", "caret-then-sign",
        "leading-star", "bad-characteristic", "empty", "comments-only",
        "exponent-too-large", "empty-name", "trailing-comma"])
def test_main_input_errors(tmp_path, capsys, text, message):
    # every input error exits 2 with one 'error:' line, at its position
    # wherever the parser knows it
    inp = tmp_path / "in.txt"
    inp.write_text(text)
    assert main(["resolve", str(inp)]) == 2
    out = capsys.readouterr()
    assert out.err == f"error: {message}\n" and out.out == ""


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="int() has no digit limit here")
@pytest.mark.parametrize("term, col", [("{}*x", 1), ("x^{}", 3)],
                         ids=["coefficient", "exponent"])
def test_main_overlong_number_exits_2(tmp_path, capsys, term, col):
    # a number with more digits than int() converts is an input error at
    # its column, not a traceback
    digits = sys.get_int_max_str_digits() + 1
    inp = tmp_path / "in.txt"
    inp.write_text("ring 7 x,y dp\n" + term.format("1" * digits) + "\n")
    assert main(["resolve", str(inp)]) == 2
    out = capsys.readouterr()
    assert out.err == (f"error: line 2, column {col}: number too long "
                       f"({digits} digits)\n") and out.out == ""


def test_main_prints_an_empty_minimal_betti_table(tmp_path, capsys):
    # the unit ideal resolves to F_0 <- F_1 with phi_1 = 1, which cancels
    # entirely, so its minimal table has no entry
    inp = tmp_path / "in.txt"
    inp.write_text("ring 7 x,y dp\n1\n")
    assert main(["resolve", str(inp), "--betti", "min"]) == 0
    assert capsys.readouterr().out.endswith("Minimal Betti table:\n(empty)\n\n")


def test_main_eliminates_the_strands_once(tmp_path, capsys, monkeypatch):
    # with --minimize, the minimal Betti table is read off the minimized
    # resolution, so one run eliminates the constant strands once, and it
    # prints the table that betti_minimal_from_nonminimal gives without it
    inp = tmp_path / "in.txt"
    assert main(["gen", "agr", "--n", "5", "--d", "4", "--s", "12",
                 "-o", str(inp)]) == 0
    calls = []
    plan = resolution._plan_pivots

    def counting(res):
        calls.append(res)
        return plan(res)

    monkeypatch.setattr(resolution, "_plan_pivots", counting)
    assert main(["resolve", str(inp), "--betti", "both", "--minimize"]) == 0
    assert len(calls) == 1
    out = capsys.readouterr().out
    tables = out[out.index("Non-minimal"):out.index("minimized:")]
    assert main(["resolve", str(inp), "--betti", "both"]) == 0
    assert len(calls) == 2
    out = capsys.readouterr().out
    assert out[out.index("Non-minimal"):] == tables


def test_betti_refuses_ungraded_input_before_resolving(tmp_path, capsys,
                                                       monkeypatch):
    # the worked example with x^2 replaced by x^80*z is ungraded: --betti
    # and --minimize are refused from the parsed input, with no resolve run
    # (seconds at this K) and no resolution line printed
    inp = tmp_path / "k80.txt"
    inp.write_text("ring 32003 w,x,y,z lp\nw*x+w*z+x^80*z-z^2\n"
                   "w*y-w*z-x*z-y*z-2*z^2\nx*y+z^2\n")

    def no_resolve(*args, **kwargs):
        raise AssertionError("resolve ran")

    monkeypatch.setattr(cli, "resolve", no_resolve)
    for flags, msg in [(["--betti", "min"], "Betti tables require"),
                       (["--betti", "both"], "Betti tables require"),
                       (["--betti", "nonmin"], "Betti tables require"),
                       (["--minimize"], "--minimize requires")]:
        assert main(["resolve", str(inp), *flags]) == 2
        out, err = capsys.readouterr()
        assert "resolution length" not in out
        assert err.startswith(f"error: {msg} homogeneous input")


def test_main_gen_degenerate_form_exits_2(capsys):
    # in one variable over F_2 every linear form is x, so two of them give
    # the apolar form x + x = 0 on every retry
    args = ["gen", "agr", "--n", "1", "--d", "1", "--s", "2", "--p", "2",
            "--seed", "5"]
    assert main(args) == 2
    out = capsys.readouterr()
    assert out.err == "error: degenerate apolar form after retries\n"
    assert out.out == ""


def test_parse_input_comments_blank_lines_and_cancellation():
    plain = parse_input("ring 7 x,y dp\nx^2\ny\n")
    commented = parse_input("# header\n\nring 7 x,y dp  # the ring\n\n"
                            "  x^2 # a square\n#\nx - x\n\ny\n")
    assert commented.generators == plain.generators  # x - x adds none
    ring = plain.ring
    y = {(ring.mono([0, 1]), 0): 1}
    assert parse_polynomial("0*x+y", ring) == y
    assert parse_polynomial("x+y-x", ring) == y


def test_main_stats_verbose_prints_each_differential(tmp_path, capsys):
    inp = tmp_path / "in.txt"
    inp.write_text(SEC5)
    assert main(["resolve", str(inp), "--stats"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines.index("   i  #Generators     #Terms   Q_sparse   time[s]")
    # phi_2 of the worked example: 2 generators, 11 terms in 6 entries
    assert re.fullmatch(r"   2            2         11      1\.833 +\d+\.\d{3}",
                        lines[header + 1])
    assert header + 2 == len(lines)


def test_main_gen_stdout_equals_output_file(tmp_path, capsys):
    args = ["gen", "agr", "--n", "3", "--d", "3", "--s", "5", "--seed", "2"]
    path = tmp_path / "agr.txt"
    assert main(args + ["-o", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert main(args) == 0
    assert capsys.readouterr().out.encode("utf-8") == path.read_bytes()


HUGE_P = 2**61 - 1  # a Mersenne prime: trial division to its root takes minutes


@pytest.mark.parametrize("make", [
    lambda: parse_input(f"ring {HUGE_P} x dp\nx\n"),
    lambda: Ring(HUGE_P, ("x",)),
    lambda: AgrSpec(1, 1, 1, p=HUGE_P),
], ids=["parse_input", "Ring", "AgrSpec"])
def test_huge_characteristic_fails_at_once(make):
    # the bound p < 2^31 is tested before any trial division
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="not below 2\\^31"):
        make()
    assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize("command", [
    ["resolve", "IN"],
    ["gen", "agr", "--n", "1", "--d", "1", "--s", "1", "--p", str(HUGE_P)],
], ids=["resolve", "gen-agr"])
def test_main_huge_characteristic_exits_2(tmp_path, command):
    # in a fresh process, so that a hang fails by the timeout: the error
    # path itself takes about 0.15 s on a 2-vCPU Xeon VM, interpreter start
    # included
    inp = tmp_path / "in.txt"
    inp.write_text(f"ring {HUGE_P} x dp\nx\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(syzkit.__file__)))
    cli = [sys.executable, "-c",
           "import sys; from syzkit.cli import main; sys.exit(main())"]
    run = subprocess.run(cli + [str(inp) if a == "IN" else a for a in command],
                         env=env, capture_output=True, text=True, timeout=5)
    assert run.returncode == 2
    assert run.stderr.startswith("error: ") and "not below 2^31" in run.stderr
    assert "Traceback" not in run.stderr and run.stdout == ""


@pytest.mark.parametrize("value", ["0", "-2"])
def test_main_rejects_max_length_below_one(tmp_path, capsys, value):
    good = tmp_path / "good.txt"
    good.write_text(SEC5)
    assert main(["resolve", str(good), "--max-length", value]) == 1
    out = capsys.readouterr()
    assert "usage error" in out.err and "--max-length" in out.err
    assert out.out == ""


@pytest.fixture
def agr436_file(tmp_path):
    """``gen agr --n 4 --d 3 --s 6``: a resolution of length 5 whose
    minimal beta_2 (25) differs from the minimal numbers of its level-2 cut
    (35), which would need phi_3's constant strands."""
    path = tmp_path / "agr436.txt"
    assert main(["gen", "agr", "--n", "4", "--d", "3", "--s", "6",
                 "-o", str(path)]) == 0
    return path


@pytest.mark.parametrize("flags", [["--betti", "min"], ["--betti", "both"],
                                   ["--minimize"]])
def test_main_cut_run_rejects_minimal_output(agr436_file, capsys, flags):
    capsys.readouterr()
    assert main(["resolve", str(agr436_file), "--max-length", "2"] + flags) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error: --max-length 2 cuts")
    assert "Minimal Betti table" not in out.out and "minimized" not in out.out
    # the non-minimal table of a cut run is the frame's, and stays
    assert main(["resolve", str(agr436_file), "--max-length", "2",
                 "--betti", "nonmin"]) == 0
    assert "total:     1    15    40" in capsys.readouterr().out


@pytest.mark.parametrize("max_length", ["5", "9"])
def test_main_uncut_max_length_keeps_the_minimal_table(agr436_file, capsys,
                                                       max_length):
    capsys.readouterr()
    assert main(["resolve", str(agr436_file), "--betti", "min",
                 "--minimize"]) == 0
    full = capsys.readouterr().out
    assert main(["resolve", str(agr436_file), "--betti", "min", "--minimize",
                 "--max-length", max_length]) == 0
    printed = capsys.readouterr().out
    assert "total:     1    10    25    25    10     1" in full

    def table(text):
        return text[text.index("Minimal Betti table:"):]
    assert table(printed) == table(full)


def test_main_rejects_undecodable_input(tmp_path, capsys, monkeypatch):
    # bytes that are not UTF-8, from a file and from stdin, are an input error
    raw = b"ring 7 x,y dp\nx\xff+y\n"
    bad = tmp_path / "bad.txt"
    bad.write_bytes(raw)
    monkeypatch.setattr("sys.stdin",
                        io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    for source in (str(bad), "-"):
        assert main(["resolve", source]) == 2
        out = capsys.readouterr()
        assert out.err.startswith("error: ") and "decode" in out.err
        assert "Traceback" not in out.err and out.out == ""


def test_main_accepts_a_byte_order_mark(tmp_path, capsys, monkeypatch):
    # a UTF-8 byte-order mark before the ring line, from a file and from
    # stdin, is dropped; CRLF line ends are read as line ends
    plain = tmp_path / "plain.txt"
    plain.write_text(SEC5)
    assert main(["resolve", str(plain), "--print-resolution"]) == 0
    want = capsys.readouterr().out.split("\n", 2)[2]  # after the time
    raw = b"\xef\xbb\xbf" + SEC5.replace("\n", "\r\n").encode()
    bom = tmp_path / "bom.txt"
    bom.write_bytes(raw)
    monkeypatch.setattr("sys.stdin",
                        io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    for source in (str(bom), "-"):
        assert main(["resolve", source, "--print-resolution"]) == 0
        out = capsys.readouterr()
        assert out.err == "" and out.out.split("\n", 2)[2] == want


def test_main_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("lifting lost its leading term")

    monkeypatch.setattr("syzkit.cli.resolve", broken)
    inp = tmp_path / "in.txt"
    inp.write_text(SEC5)
    assert main(["resolve", str(inp)]) == 2
    err = capsys.readouterr().err
    assert err == "error: internal: lifting lost its leading term\n"
    assert "Traceback" not in err


def test_main_gen_resolve_pipeline(tmp_path, capsys):
    ideal_file = tmp_path / "agr.txt"
    assert main(["gen", "agr", "--n", "2", "--d", "2", "--s", "2",
                 "--p", "10007", "--seed", "3", "-o", str(ideal_file)]) == 0
    assert ideal_file.read_text().startswith("ring 10007 x0,x1,x2 dp")
    assert main(["resolve", str(ideal_file), "--betti", "min",
                 "--minimize"]) == 0
    printed = capsys.readouterr().out
    assert "Minimal Betti table:" in printed


def test_main_determinism(tmp_path, capsys):
    inp = tmp_path / "in.txt"
    inp.write_text(SEC5)

    def run(tag):
        out = tmp_path / f"res_{tag}.txt"
        img = tmp_path / f"img_{tag}"
        code = main(["resolve", str(inp), "--alg", "tree", "--betti", "both",
                     "--output", str(out), "--image", str(img)])
        assert code == 0
        stdout = capsys.readouterr().out
        # timing lines vary run to run; compare everything else
        stable = "\n".join(ln for ln in stdout.splitlines()
                           if not ln.startswith("minimal:"))
        return stable, out.read_text(), (tmp_path / f"img_{tag}_phi2.pgm").read_bytes()

    assert run("a") == run("b")


def test_main_output_does_not_depend_on_hash_seed(tmp_path):
    # gen and resolve in fresh processes under three hash seeds: the input
    # and the printed minimized resolution are the same bytes
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(syzkit.__file__)))
    cli = [sys.executable, "-c",
           "import sys; from syzkit.cli import main; sys.exit(main())"]
    outputs = set()
    for seed in ("0", "1", "12345"):
        env["PYTHONHASHSEED"] = seed
        ideal = tmp_path / f"agr_{seed}.txt"
        subprocess.run(cli + ["gen", "agr", "--n", "5", "--d", "4", "--s", "12",
                              "-o", str(ideal)],
                       env=env, check=True, timeout=120)
        run = subprocess.run(cli + ["resolve", str(ideal), "--minimize",
                                    "--print-resolution"],
                             env=env, check=True, timeout=120,
                             capture_output=True)
        # the status line carries the wall time
        stdout = b"\n".join(ln for ln in run.stdout.splitlines()
                            if b"time:" not in ln)
        outputs.add((ideal.read_bytes(), stdout))
    assert len(outputs) == 1
    assert stdout.endswith(b"end")


def test_python_m_cli_prints_no_warning(tmp_path):
    # the package serves its command-line names lazily, so running the
    # module with -m finds it unimported and warns about nothing
    inp = tmp_path / "in.txt"
    inp.write_text("ring 7 x,y dp\nx^2\nx*y\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(syzkit.__file__)))
    run = subprocess.run([sys.executable, "-m", "syzkit.cli", "resolve", str(inp)],
                         env=env, capture_output=True, timeout=120)
    assert run.returncode == 0
    assert run.stderr == b""
    assert b"resolution length 2" in run.stdout


def test_star_import_gives_the_listed_names():
    # __all__ holds the lazy command-line names too, so a star import
    # loads them instead of leaving them undefined
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(syzkit.__file__)))
    code = ("from syzkit import *\n"
            "doc = parse_input('ring 7 x,y dp\\nx^2\\n')\n"
            "print(len(resolve(doc.generators, doc.ring, doc.ordering).diffs))")
    run = subprocess.run([sys.executable, "-c", code],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "1\n"
    assert all(hasattr(syzkit, name) for name in syzkit.__all__)


PIPELINE_WITHOUT_NUMPY = """
import contextlib, io, sys
from syzkit import main
from syzkit.cli import InputDocument, parse_input, serialize_input, serialize_resolution
from syzkit.examples_gen import AgrSpec, gen_agr
from syzkit.groebner import buchberger
from syzkit.orderings import BaseOrdering
from syzkit.resolution import betti_minimal_from_nonminimal, minimize, resolve

ideal = gen_agr(AgrSpec(n=3, d=3, s=5, p=10007, seed=1))
base = BaseOrdering("dp", ideal.ring.nvars)
doc = parse_input(serialize_input(InputDocument(ideal.ring, base, ideal.generators)))
gb = buchberger(doc.generators, doc.ring, doc.ordering)
res = resolve(doc.generators, doc.ring, doc.ordering, alg="tree", gb=gb)
table = betti_minimal_from_nonminimal(res)
text = serialize_resolution(minimize(res))
assert text.endswith("end\\n") and table.data
# syzkit gen agr | syzkit resolve
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert main(["gen", "agr", "--n", "3", "--d", "3", "--s", "5"]) == 0
sys.stdin = io.TextIOWrapper(io.BytesIO(out.getvalue().encode()))
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["resolve", "-", "--minimize"]) == 0
print("numpy" in sys.modules)
"""


def test_import_loads_no_dataclass_machinery():
    # the record classes are plain classes, so importing the package and its
    # command line loads neither dataclasses nor the inspect, ast and dis
    # modules it pulls in (about 1 MB of resident memory per process).  The
    # baseline is the interpreter's own modules before the import: a .pth
    # file run at start-up may load inspect, and that is not syzkit's doing
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(syzkit.__file__)))
    code = ("import sys; bare = set(sys.modules); import syzkit, syzkit.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - bare)))")
    run = subprocess.run([sys.executable, "-c", code],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_pipeline_never_imports_numpy():
    # generation, parsing, the Groebner basis, tree resolve, the minimal
    # Betti table, minimize, serialization and the gen | resolve commands,
    # all in one fresh process: none of it loads numpy
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(syzkit.__file__)))
    run = subprocess.run([sys.executable, "-c", PIPELINE_WITHOUT_NUMPY],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


# -- input round trips -----------------------------------------------------


@pytest.mark.parametrize("spec", [(5, 4, 12), (6, 5, 18), (6, 5, 42)])
def test_input_roundtrip_agr(spec):
    ideal = gen_agr(AgrSpec(*spec, p=10007, seed=0))
    doc = InputDocument(ideal.ring, BaseOrdering("dp", ideal.ring.nvars),
                        ideal.generators)
    assert parse_input(serialize_input(doc)).generators == doc.generators


def test_input_roundtrip_corpus(corpus):
    for e in corpus:
        doc = InputDocument(e.ring, e.base, e.gens)
        assert parse_input(serialize_input(doc)).generators == doc.generators


@pytest.mark.parametrize("spec", [(5, 4, 12), (6, 5, 42)])
def test_spelled_monomials_parse_as_their_factors(spec):
    # a canonical monomial such as x0^2*x1 is one token, read once per
    # document; the same document with a space around each '*' and '^'
    # (one token per variable, exponents read one by one) and with every
    # power written out (x0*x0*x1, one token) gives the same generators
    ideal = gen_agr(AgrSpec(*spec, p=10007, seed=0))
    text = serialize_input(InputDocument(
        ideal.ring, BaseOrdering("dp", ideal.ring.nvars), ideal.generators))
    spaced = text.replace("*", " * ").replace("^", " ^ ")
    expanded = re.sub(r"(x\d+)\^(\d+)",
                      lambda m: "*".join([m[1]] * int(m[2])), text)
    assert spaced != text != expanded
    for variant in (spaced, expanded):
        assert parse_input(variant).generators == ideal.generators

"""The command line's exit-code contract under fuzzing: ``syzkit resolve``
on a mutated document with any set of flags exits 0 (done), 1 (usage
error) or 2 (input, domain or internal error), no exception escapes
``main``, and a run cut by ``--max-length`` that asks for minimal output
exits 2.

Each example runs under a deadline of DEADLINE_S seconds, enforced by an
interval timer that interrupts it, and one that passes it is discarded:
Hypothesis' own deadline is read only once an example has finished, so it
could not stop an input that stalls.  Exponents are bounded too, since the
runs on the worked example with x^K z grow fast with K.  Unix only
(SIGALRM), as is CI.
"""

import contextlib
import io
import os
import re
import signal
import tempfile
from functools import lru_cache

from hypothesis import assume, example, given, reject, settings, strategies as st

from syzkit.algebra import DomainError
from syzkit.cli import InputDocument, ParseError, main, parse_input, serialize_input
from syzkit.examples_gen import AgrSpec, gen_agr
from syzkit.orderings import BaseOrdering
from syzkit.resolution import resolve

from conftest import SEC5_TEXT

# the base documents: the worked example, an ungraded input, the worked
# example with x^2 replaced by x^20 z (whose runs grow fast with the
# exponent), and AGR (4, 3, 6), made by base_text
TEXTS = {
    "sec5": SEC5_TEXT,
    "ungraded": "ring 32003 x,y,z dp\nx^2+y\ny*z+1\n",
    "x20z": "ring 32003 w,x,y,z lp\nw*x+w*z+x^20*z-z^2\n"
            "w*y-w*z-x*z-y*z-2*z^2\nx*y+z^2\n",
}
DOCUMENTS = (*TEXTS, "agr436")
ALPHABET = "0123456789wxyz+-*^ ,#\n\r\t\xe9"
MAX_EXPONENT = 30
DEADLINE_S = 2.0


@lru_cache(maxsize=None)
def base_text(name: str) -> str:
    if name in TEXTS:
        return TEXTS[name]
    # what ``syzkit gen agr --n 4 --d 3 --s 6`` writes
    ideal = gen_agr(AgrSpec(n=4, d=3, s=6, p=10007, seed=0))
    base = BaseOrdering("dp", ideal.ring.nvars)
    return serialize_input(InputDocument(ideal.ring, base, ideal.generators))


@st.composite
def documents(draw):
    """A base document after 1-5 single-character insertions, deletions
    or replacements, with every exponent at most MAX_EXPONENT."""
    text = base_text(draw(st.sampled_from(DOCUMENTS)))
    for _ in range(draw(st.integers(1, 5))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        ch = "" if edit == "delete" else draw(st.sampled_from(ALPHABET))
        text = text[:i] + ch + text[i + (edit != "insert"):]
    assume(all(int(e) <= MAX_EXPONENT for e in re.findall(r"\^\s*(\d+)", text)))
    return text


@st.composite
def flag_sets(draw):
    """(argv after the input path, whether it asks for minimal output,
    --max-length or None)."""
    argv = []
    if draw(st.booleans()):
        argv += ["--alg", draw(st.sampled_from(("reduce", "hybrid", "tree")))]
    max_length = draw(st.one_of(st.none(), st.integers(0, 4),
                                st.integers(5, MAX_EXPONENT)))
    if max_length is not None:
        argv += ["--max-length", str(max_length)]
    betti = draw(st.sampled_from((None, "min", "nonmin", "both")))
    if betti:
        argv += ["--betti", betti]
    minimize = draw(st.booleans())
    argv += ["--minimize"] * minimize + ["--stats"] * draw(st.booleans())
    return argv, minimize or betti in ("min", "both"), max_length


def _is_cut(text: str, max_length: int) -> bool:
    """Whether ``resolve`` at this length stops before the frame ends; False
    when the document does not parse or does not resolve."""
    try:
        doc = parse_input(text)
        return resolve(doc.generators, doc.ring, doc.ordering,
                       max_length=max_length).cut
    except (ParseError, DomainError):
        return False


class _PastDeadline(BaseException):
    """Raised by the timer; a BaseException, so that ``main`` cannot catch
    it."""


def _interrupt(signum, frame):
    raise _PastDeadline


@contextlib.contextmanager
def _deadline(seconds: float):
    previous = signal.signal(signal.SIGALRM, _interrupt)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=150, deadline=None)
@given(documents(), flag_sets())
# the worked example, one blank line added, cut at its first level (its
# resolution has length 2): every random batch holds few cut runs
@example(SEC5_TEXT + "\n", (["--max-length", "1", "--betti", "min"], True, 1))
@example(SEC5_TEXT + "\n", (["--max-length", "1", "--minimize"], True, 1))
def test_resolve_exit_codes(text, flags):
    argv, asks_minimal, max_length = flags
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.txt")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        try:
            with _deadline(DEADLINE_S):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()) as err:
                    code = main(["resolve", path, *argv])
                cut = asks_minimal and max_length and _is_cut(text, max_length)
        except _PastDeadline:
            reject()
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if cut:
        assert code == 2

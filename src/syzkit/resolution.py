"""Free resolutions: the level-by-level driver, Betti tables, minimization,
constant strands and the Hilbert-series consistency oracle.

A resolution stores its differentials column-wise: ``diffs[k-1]`` is the list
of columns of the map F_k -> F_{k-1}, each column a module vector normalized
under the level-(k-1) induced ordering and frozen into a
:class:`~syzkit.algebra.Column`.  Reordering generators between levels
permutes columns only; component indices always refer to the previous level's
(already fixed) basis, so no index rewriting is ever needed.
"""

from __future__ import annotations

import time
from typing import Iterator, Optional, Sequence

from .algebra import (
    Column,
    DomainError,
    OpCounters,
    Ring,
    Vec,
    is_homogeneous,
    mono_deg,
    mono_div,
    mono_divides,
    mono_exponents,
    mono_from_exponents,
    mono_mul,
    term_times_vector,
    vec_iadd_scaled,
    vec_interned,
)
from .orderings import BaseOrdering
from .linalg import echelon
from .groebner import GroebnerBasis, buchberger
from .frame import build_frame
from .lift import LIFT_ALGORITHMS, SubtreeCache, lift_frame_iter


class GradedFreeModule:
    __slots__ = ("rank", "twists")

    def __init__(self, rank: int, twists: Optional[Sequence[int]] = None):
        if twists is not None:
            twists = tuple(twists)
            if len(twists) != rank:
                raise DomainError("rank and twist count differ")
        self.rank = rank
        self.twists = twists  # None when ungraded


class BettiTable:
    """Graded Betti numbers beta_{k,j}, displayed with rows j - k."""

    def __init__(self, data: dict):
        self.data = {kj: v for kj, v in data.items() if v}

    def get(self, k: int, j: int) -> int:
        return self.data.get((k, j), 0)

    @property
    def max_level(self) -> int:
        return max((k for k, _ in self.data), default=0)

    def totals(self) -> list:
        out = [0] * (self.max_level + 1)
        for (k, _), v in self.data.items():
            out[k] += v
        return out

    def euler(self) -> dict:
        """Alternating sum over levels: degree -> coefficient (in Z)."""
        out: dict = {}
        for (k, j), v in self.data.items():
            out[j] = out.get(j, 0) + (v if k % 2 == 0 else -v)
        return {j: c for j, c in out.items() if c}

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.data == other.data

    def format(self) -> str:
        """Paper-style layout: columns are levels, rows are j - k, dashes for
        zeros, a totals row at the bottom."""
        if not self.data:
            return "(empty)\n"
        kmax = self.max_level
        rows = sorted({j - k for k, j in self.data})
        rmin, rmax = rows[0], rows[-1]
        width = max(6, max(len(str(v)) for v in self.data.values()) + 2)
        head = " " * 7 + "".join(str(k).rjust(width) for k in range(kmax + 1))
        lines = [head]
        for r in range(rmin, rmax + 1):
            cells = []
            for k in range(kmax + 1):
                v = self.get(k, k + r)
                cells.append((str(v) if v else "-").rjust(width))
            lines.append(f"{r}:".rjust(7) + "".join(cells))
        lines.append("-" * len(head))
        lines.append("total:".rjust(7)
                     + "".join(str(t).rjust(width) for t in self.totals()))
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"BettiTable({self.data!r})"


class Resolution:
    """A chain of free modules and sparse differentials over F_p.  ``cut``,
    set only by ``resolve``, is true when ``max_length`` stopped the run
    before a level its frame has (see :func:`_plan_pivots`)."""

    def __init__(self, ring: Ring, base: BaseOrdering, modules: list,
                 diffs: list, stats: OpCounters, level_times=None,
                 cut: bool = False):
        self.ring = ring
        self.base = base
        self.modules = modules
        self.diffs = diffs  # diffs[k-1]: columns of phi_k, vectors in F_{k-1}
        self.stats = stats
        self.level_times = level_times or []
        self.cut = cut
        one = ring.one  # minimal: no differential has a constant entry
        self.minimal = not any(mm[0] == one for cols in diffs
                               for col in cols for mm in col)

    @property
    def graded(self) -> bool:
        """The modules carry twists: ``resolve`` gives all of them or none."""
        return self.modules[0].twists is not None

    @property
    def length(self) -> int:
        return len(self.diffs)

    def term_count(self, k: int) -> int:
        return sum(len(col) for col in self.diffs[k - 1])

    def entry_count(self, k: int) -> int:
        return self.modules[k].rank * self.modules[k - 1].rank

    def q_sparse(self) -> Optional[float]:
        entries = sum(self.entry_count(k) for k in range(2, self.length + 1))
        if not entries:
            return None
        terms = sum(self.term_count(k) for k in range(2, self.length + 1))
        return terms / entries

    def check_complex(self) -> bool:
        """phi_k o phi_{k+1} == 0, by sparse multiplication; each shifted
        column m*phi_k(e_i) is formed once per level."""
        p = self.ring.p
        for k in range(1, self.length):
            prev_cols = self.diffs[k - 1]
            shifted: dict = {}
            for col in self.diffs[k]:
                acc: Vec = {}
                for mm, c in col.items():
                    img = shifted.get(mm)
                    if img is None:
                        m, i = mm
                        img = shifted[mm] = term_times_vector(m, prev_cols[i])
                    vec_iadd_scaled(acc, c, img, p)
                if acc:
                    return False
        return True


def resolve(gens: Sequence[Vec], ring: Ring, base: BaseOrdering,
            alg: str = "tree", max_length: Optional[int] = None,
            counters: Optional[OpCounters] = None, rank0: int = 1,
            twists0: Optional[Sequence[int]] = None,
            gb: Optional[GroebnerBasis] = None) -> Resolution:
    """Free resolution of R^rank0 / <gens> by lifting its Schreyer frame.

    Computes the reduced Groebner basis of the input, then its Schreyer
    frame (:func:`~syzkit.frame.build_frame`), which fixes the leading
    terms of every level and their order before any lifting starts.  Each
    frame level is then lifted against the Groebner basis formed by the
    level before it, as a stream: the level's basis
    (:meth:`~syzkit.groebner.GroebnerBasis.syzygy_basis`) takes each
    lifting as it is computed, checked to keep its frame term as its head,
    so every level's generators come in the frame's one order (see
    :func:`~syzkit.orderings.reorder_permutation`).  Every module after
    the first has its basis' lead degrees as twists if the input is
    graded, and none otherwise.  A given ``gb`` must be the reduced
    level-0 basis of ``gens`` in R^rank0 with ``twists0``, over ``ring``
    and under ``base``; DomainError otherwise.  ``n_terms`` in the
    returned stats excludes the first differential.

    With ``max_length`` L, the frame is built to phi_{L+1} and at most
    phi_1 to phi_L are lifted; the run is ``cut`` when phi_{L+1} exists.
    """
    if alg not in LIFT_ALGORITHMS:
        raise DomainError(f"unknown lifting algorithm {alg!r}")
    if max_length is not None and max_length < 1:
        raise DomainError(f"max_length must be at least 1, got {max_length}")
    counters = counters if counters is not None else OpCounters()
    if twists0 is None:
        twists0 = (0,) * rank0
    twists0 = tuple(twists0)
    if gb is None:  # checks the components and twists of the input
        gb = buchberger(gens, ring, base, rank=rank0, twists=twists0)
    elif (gb.level, gb.ring.p, gb.ring.names, gb.chain.base.kind) != (
            0, ring.p, ring.names, base.kind):
        raise DomainError(f"gb must be a level-0 basis over {ring.p}, "
                          f"{','.join(ring.names)} under {base.kind}")
    elif ((gb.rank, gb.twists) != (rank0, twists0)
          or any(not 0 <= mm[1] < rank0 for g in gens for mm in g)):
        raise DomainError(f"gb and gens must lie in R^{rank0} with twists {twists0}")
    graded = all(is_homogeneous(g, twists0) for gs in (gens, gb.gens) for g in gs)
    modules = [GradedFreeModule(rank0, twists0 if graded else None)]
    diffs: list = []
    level_times: list = []
    if not gb.gens:
        return Resolution(ring, base, modules, diffs, counters, level_times)
    frame = build_frame(gb, max_length)
    cut = max_length is not None and len(frame) == max_length
    if cut:  # phi_{L+1} exists: its heads are known, but it is not lifted
        frame.pop()
    G = gb
    modules.append(GradedFreeModule(len(G.gens), G.degrees if graded else None))
    diffs.append(list(G.gens))
    table: dict = {}  # the canonical objects of this call's columns
    for g in G.gens:  # adopt the input basis' objects
        vec_interned(g.items(), table)
    for frame_level in frame:
        t0 = time.perf_counter()
        terms = frame_level.terms
        lifts = lift_frame_iter(terms, G, alg, counters, SubtreeCache(table))
        # the basis sorts and interns each lifting as the stream yields it,
        # and its generators are the columns: one raw lifting is alive at a
        # time, so that no level is ever held twice
        G = G.syzygy_basis(_heads_kept(terms, lifts), table)
        if G.lms != tuple(terms):
            raise RuntimeError("lifting lost its leading term")
        diffs.append(list(G.gens))
        modules.append(GradedFreeModule(len(G.gens), G.degrees if graded else None))
        counters.n_terms += sum(len(v) for v in G.gens)
        level_times.append(time.perf_counter() - t0)
    return Resolution(ring, base, modules, diffs, counters, level_times, cut)


def _heads_kept(terms: Sequence, lifts: Iterator[Vec]) -> Iterator[Vec]:
    """The liftings ``lifts`` of the frame terms ``terms``, passed on one at a
    time, each checked to hold its term at coefficient 1."""
    for i, v in enumerate(lifts):
        if i == len(terms) or v.get(terms[i]) != 1:
            raise RuntimeError("lifting lost its leading term")
        yield v


# ---------------------------------------------------------------------------
# Betti tables


def betti_nonminimal(res: Resolution) -> BettiTable:
    if not res.graded:
        raise DomainError("Betti numbers require a graded resolution")
    data: dict = {}
    for k, mod in enumerate(res.modules):
        for t in mod.twists:
            data[(k, t)] = data.get((k, t), 0) + 1
    return BettiTable(data)


def betti_minimal_from_nonminimal(res: Resolution) -> BettiTable:
    """Minimal Betti numbers: the non-minimal table less, for every pivot
    j0 -> i0 of phi_k (:func:`_plan_pivots`), the generators e_{j0} of F_k
    and e_{i0} of F_{k-1}, which have one degree, so the table is the shape
    :func:`minimize` outputs.  A degree-j strand B_{k,j} has rank B_{k,j}
    pivots, so beta^min_{k,j} = beta_{k,j} - rank B_{k,j} - rank B_{k+1,j}.
    Level L's numbers need phi_{L+1}, so a ``cut`` run raises DomainError
    (:func:`_plan_pivots`), as does an ungraded one."""
    data = dict(betti_nonminimal(res).data)
    for k, pivots in enumerate(_plan_pivots(res), start=1):
        cols, rows = res.modules[k].twists, res.modules[k - 1].twists
        for j0, i0 in pivots.items():
            data[(k, cols[j0])] -= 1
            data[(k - 1, rows[i0])] -= 1
    if any(v < 0 for v in data.values()):
        raise RuntimeError("negative minimal Betti number; invalid strand data")
    return BettiTable(data)


# ---------------------------------------------------------------------------
# minimization


def _sweep(cols: list, gone: dict, pivots: dict, ring: Ring) -> None:
    """One backward elimination sweep over the columns of phi_k, in place.

    ``cols`` holds the columns of phi_k, with None for the columns to skip;
    each other column is replaced by a dict copy without the rows j0 of
    ``gone``, level k-1's pivots {j0: i0}.  The pivots {j0: i0} of phi_k
    are applied from the last to the first: with c the unit entry of col_{j0}
    in row i0, every other column j with an entry in row i0 becomes
    col_j - q*col_{j0} with q = entry(i0, j)/c, which clears row i0 outside
    j0.  The row-i0 terms are found in a row index, kept up to date on
    fill-in, of the columns and keys that may hold a term in each pivot
    row; no other row is ever read, so none is indexed.  By
    homogeneity c is the pivot's only entry in row i0, so the row-i0 terms
    of col_j are deleted, not recomputed, and m*col_{j0} is formed once per
    monomial m of some q, its keys interned in a table of the sweep so that
    the column updates find their keys by identity.  The used pivot column
    is set to None.
    """
    p = ring.p
    one = ring.one
    # pivot row -> (columns, keys) of the terms it may hold
    at: dict = {i0: ([], []) for i0 in pivots.values()}
    keys: dict = {}  # one object per key, so lookups match by identity
    for j, col in enumerate(cols):
        if col is None:
            continue
        # strip now, not at renumbering, or the sweep updates those rows too
        if gone and any(i in gone for _, i in col):
            cols[j] = col = {mm: v for mm, v in col.items()
                             if mm[1] not in gone}
        else:
            cols[j] = col = dict(col.items())
        for mm in col:
            keys[mm] = mm
            row = at.get(mm[1])
            if row is not None:
                row[0].append(j)
                row[1].append(mm)
    for j0 in sorted(pivots, reverse=True):
        i0 = pivots[j0]
        pivot = cols[j0]
        cols[j0] = None
        cinv = ring.inv(pivot[(one, i0)])
        qs: dict = {}  # column -> q, its row-i0 terms (cleared by q * c)
        for j, mm in zip(*at.pop(i0)):
            col = cols[j]
            if col is None:  # j0 itself, an earlier pivot or a skipped column
                continue
            v = col.pop(mm, None)
            if v is not None:
                qs.setdefault(j, []).append((mm[0], v * cinv % p))
        shifted: dict = {}  # qm -> qm * pivot outside row i0
        for j, q in qs.items():
            col = cols[j]
            for qm, qv in q:
                img = shifted.get(qm)
                if img is None:
                    img = shifted[qm] = []
                    for (pm, pi), pv in pivot.items():
                        if pi != i0:
                            mm = (mono_mul(qm, pm), pi)
                            img.append((keys.setdefault(mm, mm), pv))
                for mm, pv in img:
                    old = col.get(mm)
                    if old is None:
                        col[mm] = -qv * pv % p
                        row = at.get(mm[1])
                        if row is not None:
                            row[0].append(j)
                            row[1].append(mm)
                    else:
                        w = (old - qv * pv) % p
                        if w:
                            col[mm] = w
                        else:
                            del col[mm]


def _plan_pivots(res: Resolution) -> list:
    """The pivots of every level, {j0: i0} per differential, by elimination
    of its constant strands; :func:`minimize` applies them and
    :func:`betti_minimal_from_nonminimal` counts them.  The degree-j strand
    of phi_k holds the constant parts of the degree-j columns of phi_k
    that have a constant entry; by homogeneity its rows are degree-j basis
    elements of F_{k-1}.  The strands are built and eliminated one degree
    at a time, each constant part frozen into a read-only
    :class:`~syzkit.algebra.Column` {row: value} of two lists (row
    indices, values), so that no more than one strand is held at once.

    By homogeneity deg q = deg e_j - deg e_{j0}, so q*col_{j0} has a
    constant entry only when q is a constant and both columns lie in one
    strand: the constant part of a column changes only through the
    constant part of a pivot of its strand.  The sweep of :func:`minimize`
    gives each column, from the last to the first, the lowest row of its
    constant part once the later pivots are cleared; ``linalg.echelon``,
    given the strand's columns last first, goes through the rows lowest
    first and gives each to the first column still nonzero there.  Both
    give a column the one row that is lowest in some vector of the span of
    it and the columns after it, and in none of the span of those after
    it, so the plan is the sweep's pivots.

    The sweep first strips the rows of level k-1's pivots; the plan need
    not, as no vector of a strand's span is lowest in such a row.  Let A
    and B be the degree-d strands of phi_{k-1} and phi_k.  A constant entry
    of phi_{k-1} o phi_k = 0 comes from constant entries alone, so AB = 0
    and the span of B lies in ker A.  A vector v of ker A lowest in row j0
    gives v_{j0} A_{j0} = -sum_{j > j0} v_j A_j: column j0 of A lies in the
    span of the columns after it, while level k-1's pivots are the columns
    of A that enlarge that span.  Every row the elimination of B holds lies
    in the span of B, so none is lowest in a stripped row, and stripping
    them changes no leading row, multiplier or pivot.

    The one gate of minimal output: DomainError on an ungraded resolution,
    which has no strands, and on a ``cut`` one, as the pivots of its missing
    phi_{L+1} would drop generators of F_L.
    """
    if not res.graded:
        raise DomainError("minimal Betti numbers and minimization require "
                          "a graded resolution")
    if res.cut:
        raise DomainError(f"the resolution is cut at level {res.length}; "
                          "minimal Betti numbers and minimization need "
                          f"phi_{res.length + 1}")
    p, one = res.ring.p, res.ring.one
    plan: list = []
    for k in range(1, res.length + 1):
        diff = res.diffs[k - 1]
        by_degree: dict = {}  # degree j -> the columns of phi_k of degree j
        for c, t in enumerate(res.modules[k].twists):
            by_degree.setdefault(t, []).append(c)
        pivots: dict = {}
        for cs in by_degree.values():
            # the degree's strand, last column first: each column with a
            # constant entry (m == one), its constant part
            # frozen into a row {row of phi_k: value}; dropped before the
            # next degree's strand is built.  The row holds lists, not
            # tuples: CPython keeps freed tuples of fewer than 20 items on
            # free lists that no later stage of another shape reuses
            cols, rows = [], []
            for c in reversed(cs):
                const = {i: v for (m, i), v in diff[c].items() if m == one}
                if const:
                    cols.append(c)
                    rows.append(Column(list(const), list(const.values())))
            pivots.update((cols[r], i0) for r, i0 in echelon(rows, p))
        plan.append(pivots)
    return plan


def minimize(res: Resolution) -> Resolution:
    """Remove all constant (degree-zero) entries by Gaussian elimination of
    unit entries, in two passes over the levels.

    Level k (phi_k: F_k -> F_{k-1}) is swept from its last column to its
    first (:func:`_sweep`).  A column j0 with a unit entry once the later
    pivots are cleared takes the one in its lowest row i0 as its pivot and
    clears row i0 outside j0.  Then e_{j0} of F_k and e_{i0} of F_{k-1} are
    dropped: in the new basis of F_{k-1}, whose element phi_k(e_{j0})
    replaces e_{i0}, column i0 of phi_{k-1} is zero; and since row i0 of
    phi_k is now c at j0 alone, phi_k o phi_{k+1} = 0 forces the
    e_{j0}-coordinates of phi_{k+1} to vanish, so those rows are stripped
    when level k+1's sweep starts.  One sweep per level is enough: a swept
    column without a unit never gains one, and the levels below only lose
    columns.  A ``cut`` or ungraded input raises DomainError
    (:func:`_plan_pivots`); the output is never cut.

    The first pass (:func:`_plan_pivots`) eliminates the constant strands
    with ``linalg`` and finds every level's pivots.  The second applies
    them to the full columns, but skips every column of phi_k that is a
    pivot row of level k+1: such a column is never a pivot at level k
    (level k+1 strips level k's pivot columns from its rows), so its values
    never enter another column, and the output drops it.  It is neither
    copied, indexed nor updated.  Each level is renumbered as soon as it is
    swept, one column at a time, into :class:`~syzkit.algebra.Column`
    objects built from the objects of the call's canonical table (see
    :mod:`syzkit.algebra`); each working column is released as its
    ``Column`` is built, so a level is never held both as dicts and as
    columns.  The output's differentials hold columns only, as those of
    ``resolve`` do; unlike those, they are not normalized: each keeps
    ``_sweep``'s fill-in order, so its first term need not be its leading
    term.
    """
    plan = _plan_pivots(res)
    table: dict = {}  # the canonical objects of the output's columns
    dropped = [set() for _ in res.modules]  # dropped basis elements of F_k
    for k, pivots in enumerate(plan, start=1):
        dropped[k].update(pivots)
        dropped[k - 1].update(pivots.values())
    renum = [{old: new for new, old in enumerate(
        i for i in range(mod.rank) if i not in drop)}
        for mod, drop in zip(res.modules, dropped)]
    twists = [[t for i, t in enumerate(mod.twists) if i in ren]
              for mod, ren in zip(res.modules, renum)]
    out_diffs = []
    for k, cols in enumerate(res.diffs, start=1):
        doomed = set(plan[k].values()) if k < len(plan) else set()
        cols = [None if j in doomed else col for j, col in enumerate(cols)]
        _sweep(cols, plan[k - 2] if k > 1 else {}, plan[k - 1], res.ring)
        ren = renum[k - 1]
        frozen = []
        for j, col in enumerate(cols):
            if col is not None:
                cols[j] = None  # each working dict dies as it is frozen
                frozen.append(vec_interned((((m, ren[i]), v)
                                            for (m, i), v in col.items()), table))
        out_diffs.append(frozen)
    while out_diffs and not out_diffs[-1]:
        out_diffs.pop()
        twists.pop()
    modules = [GradedFreeModule(len(t), tuple(t)) for t in twists]
    out = Resolution(res.ring, res.base, modules, out_diffs,
                     res.stats.copy(), list(res.level_times))
    assert out.minimal
    return out


# ---------------------------------------------------------------------------
# Hilbert series oracle


def hilbert_numerator(lead_monomials, nvars: int,
                      twists0: Optional[Sequence[int]] = None) -> dict:
    """Numerator of the Hilbert series of F_0/<lead_monomials> over the
    common denominator (1-t)^nvars, as a degree -> coefficient dict.

    Takes module monomials, grouped per component and shifted by the
    twist; uses the pivot-variable splitting recursion for monomial ideals.
    """
    by_comp: dict = {}
    for m, comp in lead_monomials:
        by_comp.setdefault(comp, []).append(m)
    rank = 1 + max(by_comp, default=0)
    if twists0 is None:
        twists0 = (0,) * rank
    if len(twists0) < rank:
        raise DomainError("twist list shorter than the component range")
    out: dict = {}
    memo: dict = {}
    for comp in range(len(twists0)):
        n = _hilbert_ideal(tuple(sorted(by_comp.get(comp, []))), nvars, memo)
        shift = twists0[comp]
        for d, c in n.items():
            out[d + shift] = out.get(d + shift, 0) + c
    return {d: c for d, c in out.items() if c}


def _minimalize(gens):
    gens = sorted(set(gens), key=lambda m: (mono_deg(m), m))
    out = []
    for g in gens:
        if not any(mono_divides(h, g) for h in out):
            out.append(g)
    return tuple(out)


def _poly1_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for da, ca in a.items():
        for db, cb in b.items():
            out[da + db] = out.get(da + db, 0) + ca * cb
    return {d: c for d, c in out.items() if c}


def _hilbert_ideal(gens: tuple, nvars: int, memo: dict) -> dict:
    """Numerator for the monomial ideal <gens>; ``memo`` is shared by the
    recursive calls of one :func:`hilbert_numerator` call."""
    gens = _minimalize(gens)
    cached = memo.get(gens)
    if cached is not None:
        return dict(cached)
    if not gens:
        return {0: 1}
    if any(mono_deg(g) == 0 for g in gens):
        return {}
    exps = [mono_exponents(g) for g in gens]
    mixed = next((e for e in exps if sum(1 for x in e if x) > 1), None)
    if mixed is None:
        # pairwise coprime pure powers: product of (1 - t^deg)
        out = {0: 1}
        for g in gens:
            out = _poly1_mul(out, {0: 1, mono_deg(g): -1})
    else:
        # pivot on a variable of the first mixed generator, preferring the
        # one hitting the most generators; splitting on it always simplifies
        pivot_var = max((v for v in range(nvars) if mixed[v]),
                        key=lambda v: sum(1 for h in exps if h[v]))
        x = mono_from_exponents(int(i == pivot_var) for i in range(nvars))
        out = _hilbert_ideal(gens + (x,), nvars, memo)  # a fresh dict
        quot = _hilbert_ideal(tuple(mono_div(g, x) if e[pivot_var] else g
                                    for g, e in zip(gens, exps)), nvars, memo)
        for d, c in quot.items():
            out[d + 1] = out.get(d + 1, 0) + c
        out = {d: c for d, c in out.items() if c}
    memo[gens] = dict(out)
    return out

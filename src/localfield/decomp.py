"""Calderon-Zygmund decomposition, Littlewood-Paley blocks, and B/F norms.

Both halves read one tree, functions.coset_tree: the nested cosets c + P^j
of the window, read upward by functions.lift.  The CZ stopping time walks
its exact integer subtree sums below a starting ball and selects, as tree
nodes (residue, depth), the maximal cosets whose average exceeds the
threshold, lifting the mask of covered cells one level at a time; node
(residue, depth) holds the cells residue mod q^depth.  The
Littlewood-Paley blocks are differences of its coset averages, each level
minus the lift of the level above it.  The split
and check_cz_clauses work on the cell values as integers over a common
power of two, so sums, deviations, squares and comparisons are exact.  Ball
averages, which floats almost never represent, are one Fraction per ball,
kept next to the float TestFunction views of the good and bad parts; the
views are correctly rounded per cell, and the audit evaluates every lemma
clause exactly, with no float comparisons except for the stored-view
rounding identities.

Littlewood-Paley block 0 keeps every frequency of absolute value at most 1,
block j >= 1 keeps the shell of absolute value q^j.  The average E_j f of f
over the cosets of P^j is the projection onto |xi| <= q^j, so the norms
take block 0 as E_0 f and block j as the coset-average difference
E_j f - E_(j-1) f of the tree's levels, held at its own resolution
min(j, l), with no transform.  littlewood_paley keeps the multiplier form,
apply_multiplier with the shell mask as symbol, as the oracle for those
blocks.  Besov norms aggregate block r-norms in j; the Triebel-Lizorkin
norms aggregate pointwise in x first.  The two families coincide when
r = t.  norm_columns serves every (s, r, t) triple in B, F or both through
the same two formulas, one value per row of a stack; besov_norm and
triebel_lizorkin_norm are its one-row case.  Every norm of an input reads
its block table (_block_table, memoized on the TestFunction by identity,
for the last input only): the blocks, their moduli from one np.hypot pass,
the moduli to each power e asked for, one per distinct e, and each row's
block r-norms, one per distinct r, all read-only.  The F norms read
|block|^t, the B norms with r != 2 sum |block|^r; a B norm with r = 2 sums
re^2 + im^2, whose bits differ from |block|^2, so it shares no power.  The
table takes 16 bytes per block cell for the blocks, 8 for the moduli and 8
per power: about 1.3-1.6 MB for a 16,384-cell input.  So B and F norms
called in turn on one input build its blocks, moduli and block r-norms
once.  Every sum is functions.exact_sums, bit for bit math.fsum: the B
norms put every block of the stack through one call per distinct r,
whichever triples or calls ask for it, the F norms one call per triple
(their pointwise sum lifted one level per block).  A sum past the float
range reads inf and the triple is refused.  check_norm_srt states the
triple's domain: a finite s, and r and t norm exponents.
"""

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .field import Window, expect, q_power
from .fourier import apply_multiplier
from .functions import (TestFunction, _frozen, _is_real, check_level, check_norm_exponent,
                        coset_tree, dyadic_ints, exact_sums, lift, lr_norms, lr_norms_each,
                        lr_norms_of_parts, refine)


# ---------------------------------------------------------------------------
# Calderon-Zygmund decomposition


@dataclass(frozen=True)
class CZDecomposition:
    """Stopping-time split f = bad_part + good_part at threshold lam.

    balls are the selected cosets as coset-tree nodes (residue, depth) of
    the window (a, l) of the parts: the cells = residue mod q^depth, a coset
    of P^(a + depth).  to_dict writes each as its center, the window's
    element at cell residue, and its scale a + depth.  ball_averages are
    their exact rational cell averages (the good part's value there).  The
    float parts are correctly rounded views of the exact split;
    exceptional_measure is the exact total Haar measure of the balls.
    """

    lam: float
    balls: tuple
    ball_averages: tuple
    bad_part: TestFunction
    good_part: TestFunction
    exceptional_measure: Fraction

    def to_dict(self) -> dict:
        w = self.bad_part.window
        return {
            "lambda": self.lam,
            "balls": [{"center": w.element(t).to_dict(), "scale": w.a + d} for t, d in self.balls],
            "ball_averages": [[a.numerator, a.denominator] for a in self.ball_averages],
            "bad_part": self.bad_part.to_dict(),
            "good_part": self.good_part.to_dict(),
            "exceptional_measure": [
                self.exceptional_measure.numerator,
                self.exceptional_measure.denominator,
            ],
        }


def _real_nonneg_values(f: TestFunction) -> np.ndarray:
    if np.any(f.values.imag != 0):
        raise ValueError("decomposition requires a real-valued function")
    vals = f.values.real
    if np.any(vals < 0):
        raise ValueError("decomposition requires nonnegative values")
    return vals


def _over_common_denominator(ints, den: int, averages, ball_cells) -> tuple:
    """Cell values ints/den and ball averages as numerators over one denominator M.

    Returns M, the cell numerators, the ball cells concatenated ball by ball,
    and next to each of those the numerator of its ball's average.
    """
    m = math.lcm(den, *(avg.denominator for avg in averages))
    nums = np.array([avg.numerator * (m // avg.denominator) for avg in averages], dtype=object)
    cat = np.concatenate([np.zeros(0, dtype=np.int64), *ball_cells])
    return m, ints * (m // den), cat, np.repeat(nums, [c.size for c in ball_cells])


def cz_decompose(f: TestFunction, lam, start_scale: int) -> CZDecomposition:
    """Split a nonnegative f at threshold lam > 0.

    start_scale names the ball the tree walk starts from; it must contain
    the support window of f and carry average at most lam.  Selected balls
    get good_part = ball average and bad_part = f - average; elsewhere
    good_part = f and bad_part = 0.
    """
    check_level(lam)
    if start_scale > f.a:
        raise ValueError(
            f"starting ball at scale {start_scale} does not contain the support "
            f"window at scale {f.a}; enlarge the starting ball (start_scale <= {f.a})"
        )
    g = refine(f, start_scale, f.l)
    vals = _real_nonneg_values(g)
    q = f.config.q
    depth_total = g.l - g.a
    ints, den = dyadic_ints(vals)

    # exact subtree sums; level d has q^d nodes keyed by residue mod q^d
    sums = coset_tree(ints, q, depth_total, np.sum)[::-1]
    # node (d, t) averages sums[d][t] / (den q^(depth_total - d)); it exceeds lam
    # iff the integer sums[d][t] exceeds the floor of lam den q^(depth_total - d)
    lam_fr = Fraction(lam)
    above = [s > math.floor(lam_fr * den * q ** (depth_total - d)) for d, s in enumerate(sums)]
    if above[0][0]:
        root_avg = Fraction(sums[0][0], den * q**depth_total)
        raise ValueError(
            f"average {float(root_avg):.6g} over the starting ball exceeds lambda = "
            f"{float(lam_fr):.6g}; enlarge the starting ball or raise the threshold"
        )

    # stopping time: select a node above lam unless a selected ancestor covers it
    nodes = []
    covered = np.zeros(1, dtype=bool)
    for d in range(1, depth_total + 1):
        covered = lift(covered, q**d)
        chosen = above[d] & ~covered
        nodes.extend((int(t), d) for t in np.flatnonzero(chosen))
        covered |= chosen
    nodes.sort()

    averages = tuple(Fraction(sums[d][t], den * q ** (depth_total - d)) for t, d in nodes)
    cells = [np.arange(t, vals.size, q**d) for t, d in nodes]  # the cells = t mod q^d
    m, nums, cat, avg_nums = _over_common_denominator(ints, den, averages, cells)
    good = np.array(g.values, dtype=np.complex128)
    good[cat] = avg_nums / m
    bad = np.zeros(vals.size, dtype=np.complex128)
    bad[cat] = (nums[cat] - avg_nums) / m
    return CZDecomposition(
        lam=float(lam),
        balls=tuple(nodes),
        ball_averages=averages,
        bad_part=TestFunction(f.config, g.a, g.l, bad),
        good_part=TestFunction(f.config, g.a, g.l, good),
        exceptional_measure=cat.size * g.cell_measure,  # the disjoint balls' cells
    )


def check_cz_clauses(f: TestFunction, dec: CZDecomposition) -> tuple:
    """Exact audit of every lemma clause and remark clause.

    Every sum, deviation, square and comparison is integer arithmetic over
    one common denominator.  Returns (clauses, metrics): clauses maps clause
    names to exact booleans, metrics carries the measured quantities (as
    floats) behind them.  Raises ValueError for a ball that is not a proper
    coset of the decomposition's window: a node outside 0 < depth <= l - a,
    0 <= residue < q^depth.
    """
    if f.config != dec.bad_part.config:
        raise ValueError("decomposition belongs to a different field configuration")
    g = refine(f, dec.bad_part.a, dec.bad_part.l)
    vals = _real_nonneg_values(g)
    q = f.config.q
    lam_fr = Fraction(dec.lam)
    for t, d in dec.balls:  # two proper cosets meet iff they share a cell
        expect(0 < d <= g.l - g.a and 0 <= t < q**d,
               f"a proper coset of the window ({g.a}, {g.l}): a node (residue, depth) with "
               f"0 < depth <= {g.l - g.a} and 0 <= residue < q^depth", (t, d))
    cells = [np.arange(t, vals.size, q**d) for t, d in dec.balls]
    m, nums, cat, avg_nums = _over_common_denominator(
        *dyadic_ints(vals), dec.ball_averages, cells
    )
    cover = np.bincount(cat, minlength=vals.size)
    off = cover == 0
    dev = nums[cat] - avg_nums
    sizes = np.array([c.size for c in cells], dtype=np.int64)

    off_nums = nums[off]
    unit = g.cell_measure / m  # one cell's Haar measure over the common denominator
    f_l1 = nums.sum() * unit
    bad_l1 = np.abs(dev).sum() * unit
    good_l1 = (off_nums.sum() + avg_nums.sum()) * unit
    good_sq = ((off_nums**2).sum() + (avg_nums**2).sum()) * unit / m
    off_sup = Fraction(off_nums.max(initial=0), m)
    avg_sup = Fraction(np.abs(avg_nums).max(initial=0), m)
    good_sup = max(off_sup, avg_sup)

    off_match = bool(
        np.all(dec.good_part.values[off] == g.values[off])
        and np.all(dec.bad_part.values[off] == 0)
    )
    views_rounded = bool(
        np.all(dec.good_part.values[cat] == (avg_nums / m).astype(np.float64))
        and np.all(dec.bad_part.values[cat] == (dev / m).astype(np.float64))
    )
    clauses = {
        "balls_disjoint": int(cover.max(initial=0)) <= 1,
        "measure_bound": not dec.balls or dec.exceptional_measure < f_l1 / lam_fr,
        "small_off_union": off_sup <= lam_fr,
        "good_bounded_on_union": avg_sup <= q * lam_fr,
        "good_matches_f_off": off_match,
        "bad_vanishes_off": bool(np.all(dec.bad_part.values[off] == 0)),
        # per ball, the deviations from the declared average sum to zero
        "bad_mean_zero_per_ball": not any(np.add.reduceat(dev, np.cumsum(sizes) - sizes)),
        "sum_identity": views_rounded,
        "remark_bad_l1_at_most_double": bad_l1 <= 2 * f_l1,
        "remark_bad_l1_within_f_l1": bad_l1 <= f_l1,
        "remark_good_sup": good_sup <= q * lam_fr,
        "remark_good_sq_integrable": good_sq <= q * lam_fr * f_l1,
    }
    float_dev = (
        float(np.max(np.abs(g.values - dec.bad_part.values - dec.good_part.values)))
        if vals.size
        else 0.0
    )
    metrics = {
        "f_l1": _float_metric(f_l1),
        "bad_l1": _float_metric(bad_l1),
        "good_l1": _float_metric(good_l1),
        "good_sup": _float_metric(good_sup),
        "good_sq_integral": _float_metric(good_sq),
        "exceptional_measure": _float_metric(dec.exceptional_measure),
        "ball_count": len(dec.balls),
        "float_view_max_dev": float_dev,
    }
    return clauses, metrics


def _float_metric(x: Fraction):
    # a nonnegative metric past the float range reads "inf", as check_record writes it
    try:
        return float(x)
    except OverflowError:
        return "inf"


# ---------------------------------------------------------------------------
# Littlewood-Paley blocks


def _padded(f: TestFunction) -> TestFunction:
    # spectral cells are single frequency shells only once the window reaches scale 0
    return refine(f, min(f.a, 0), f.l) if f.a > 0 else f


def littlewood_paley(f: TestFunction, j: int) -> TestFunction:
    """Projection onto frequencies with |xi| = q^j (j >= 1) or |xi| <= 1 (j = 0).

    The spectral-indicator multiplier itself: apply_multiplier with the shell
    mask as symbol, on the full padded window.  It is the oracle for the
    coset-average blocks of _all_blocks.
    """
    if j < 0:
        raise ValueError(f"block index j = {j} must be nonnegative")
    g = _padded(f)
    if j > max(g.l, 0):
        return TestFunction(g.config, g.a, g.l, np.zeros(g.values.size, dtype=np.complex128))
    levels = Window(g.config, -g.l, -g.a).valuation_levels()  # |xi| = q^(-level) per cell
    mask = (levels >= 0) if j == 0 else (levels == -j)
    return apply_multiplier(g, mask)


def _all_blocks(f: TestFunction) -> list:
    """Blocks 0..max(l, 0) of f, block j at index j, on window (a, min(j, l)).

    E_j g, the average of g over P^j-cosets, is the projection onto
    |xi| <= q^j, so block 0 is E_0 g and block j >= 1 is E_j g - E_(j-1) g,
    both read off g's coset_tree.
    """
    g = _padded(f)
    e = coset_tree(g.values, g.config.p, max(g.l, 0))[::-1]  # e[j] = E_j g on window (a, j)
    blocks = [TestFunction(g.config, g.a, j, e[j] - lift(e[j - 1], e[j].shape[-1]))
              for j in range(1, len(e))]
    return [TestFunction(g.config, g.a, min(g.l, 0), e[0]), *blocks]


# ---------------------------------------------------------------------------
# Besov / Triebel-Lizorkin / Lebesgue norms


@dataclass(frozen=True)
class NormReport:
    """A computed norm: space "B" (Besov), "F" (Triebel-Lizorkin), or "L" (Lebesgue)."""

    space: str
    s: float
    r: float
    t: float
    value: float

    def to_dict(self) -> dict:
        return {"space": self.space, "s": self.s, "r": self.r, "t": self.t, "value": self.value}


def check_triple(srt) -> None:
    """Raise ValueError unless srt is a list or tuple of three reals (s, r, t) with a finite s."""
    expect(isinstance(srt, (list, tuple)) and len(srt) == 3 and all(map(_is_real, srt))
           and abs(srt[0]) <= sys.float_info.max,
           "an (s, r, t) triple of reals with a finite float s", srt)


def check_norm_srt(srt) -> None:
    """Raise ValueError unless srt is a check_triple whose r and t are norm exponents."""
    check_triple(srt)
    check_norm_exponent(srt[1])
    check_norm_exponent(srt[2])


def _besov_value(weights, norms, t: float) -> float:
    # norms[j] is ||block j of f||_r
    try:
        return math.fsum([w * n ** t for w, n in zip(weights, norms)]) ** (1.0 / t)
    except OverflowError:  # n^t or its sum past the float range: inf, as the F norms read
        return math.inf


def _triebel_lizorkin_values(f: TestFunction, powers, weights, r: float, t: float) -> list:
    # powers[j] is |block j of f|^t per row and cell; block j + 1 is one level
    # finer than block j, so the sum over j lifts the running total one level per block
    pointwise = np.zeros(powers[0].shape[:-1] + (1,))
    for w, m in zip(weights, powers):
        pointwise = lift(pointwise, m.shape[-1]) + w * m
    rows = pointwise ** (r / t)
    try:
        sums = exact_sums(rows.ravel(), np.arange(rows.size, step=rows.shape[-1]))
    except OverflowError:  # a sum past the float range, where fsum raises: norm_columns refuses
        return [math.inf] * len(rows)
    cell = q_power(f.config.q, -f.l)
    return [(s * cell) ** (1.0 / r) for s in sums.tolist()]


class _BlockTable:
    """The Littlewood-Paley blocks of one input, as _all_blocks builds them, their
    moduli (one np.hypot pass, made when first asked for), the moduli to each
    power e asked for and each row's block r-norms for each r asked for, each made
    once; every array read-only, (rows, cells) per block."""

    def __init__(self, f: TestFunction):
        self.blocks = _all_blocks(f)
        self._powers = {}
        self._norms = {}

    @functools.cached_property
    def moduli(self) -> list:
        return [_frozen(np.hypot(v.real, v.imag), np.float64)
                for v in (np.atleast_2d(b.values) for b in self.blocks)]

    def powers(self, e: float) -> list:
        """moduli ** e, block by block."""
        if e not in self._powers:
            self._powers[e] = [_frozen(m ** e, np.float64) for m in self.moduli]
        return self._powers[e]

    def norms(self, r: float) -> tuple:
        """One tuple per row: its r-norm of every block; r = 2 sums re^2 + im^2."""
        if r not in self._norms:
            self._norms[r] = tuple(zip(*(lr_norms_each(self.blocks, r) if r == 2
                                         else lr_norms_of_parts(self.blocks, self.powers(r), r))))
        return self._norms[r]


@functools.lru_cache(maxsize=1)
def _block_table(f: TestFunction) -> _BlockTable:
    """f's _BlockTable, kept for the last f only (keyed by identity)."""
    return _BlockTable(f)


def norm_columns(f: TestFunction, srt_list, spaces: str = "BF") -> dict:
    """Each row's norms in spaces ("B", "F" or "BF") for every triple in srt_list.

    Maps (space, (s, r, t)) to one value per row of f, all from f's block table.
    A triple whose block weight q^(s j t) or whose norm is not a finite float is refused.
    """
    for srt in srt_list:
        check_norm_srt(srt)
    srt_list = [tuple(srt) for srt in srt_list]
    table = _block_table(f)
    blocks = table.blocks
    columns = {}
    for srt in srt_list:
        s, r, t = srt
        try:
            weights = [float(f.config.q) ** (s * j * t) for j in range(len(blocks))]
        except OverflowError:
            weights = [math.inf]
        if not all(map(math.isfinite, weights)):
            raise ValueError(f"(s, r, t) = {srt}: a block weight q^(s j t) is not a finite float")
        if "B" in spaces:
            columns[("B", srt)] = [_besov_value(weights, row, t) for row in table.norms(r)]
        if "F" in spaces:
            columns[("F", srt)] = _triebel_lizorkin_values(f, table.powers(t), weights, r, t)
        if not all(math.isfinite(v) for space in spaces for v in columns[(space, srt)]):
            raise ValueError(f"(s, r, t) = {srt}: a B or F norm is not a finite float")
    return columns


def besov_norm(f: TestFunction, s: float, r: float, t: float) -> NormReport:
    """(sum_j q^{sjt} ||block_j||_r^t)^{1/t} over the finitely many live blocks."""
    (value,) = norm_columns(f, [(s, r, t)], "B")[("B", (s, r, t))]
    return NormReport("B", float(s), float(r), float(t), value)


def triebel_lizorkin_norm(f: TestFunction, s: float, r: float, t: float) -> NormReport:
    """(int (sum_j q^{sjt} |block_j(x)|^t)^{r/t} dx)^{1/r}, blocks on one window."""
    (value,) = norm_columns(f, [(s, r, t)], "F")[("F", (s, r, t))]
    return NormReport("F", float(s), float(r), float(t), value)


def lebesgue_norm_report(f: TestFunction, r: float) -> NormReport:
    """L^r norm wrapped in the same report type; s is vacuously 0 and t mirrors r."""
    (value,) = lr_norms(f, r)  # checks r before float(r) can overflow, and refuses inf
    return NormReport("L", 0.0, float(r), float(r), value)

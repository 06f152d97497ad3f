"""The exact-rational Calderon-Zygmund split and audit, kept as a test oracle.

These are the Fraction-per-cell implementations that localfield.decomp
replaced with an integer core: every cell value becomes a Fraction, subtree
sums are Fraction sums, and disjointness compares every pair of balls with
Ball.intersects.  They are quadratic in the ball count, so the differential
tests run them on small windows only.  The split selects field.Balls and
returns them as the coset-tree nodes (residue, depth) that CZDecomposition
holds; the audit turns each node back into a Ball with node_ball.
"""

from fractions import Fraction

import numpy as np

from localfield.decomp import CZDecomposition
from localfield.field import Ball, Window
from localfield.functions import TestFunction, refine


def _real_nonneg_values(f: TestFunction) -> np.ndarray:
    if np.any(f.values.imag != 0):
        raise ValueError("decomposition requires a real-valued function")
    vals = f.values.real
    if np.any(vals < 0):
        raise ValueError("decomposition requires nonnegative values")
    return vals


def _node_cells(total: int, q: int, depth: int, residue: int) -> np.ndarray:
    # cells of the coset fixing the first `depth` digits: indices = residue mod q^depth
    step = q**depth
    return residue + step * np.arange(total // step)


def node_ball(w: Window, node: tuple) -> Ball:
    """The Ball of the coset-tree node (residue, depth) of window w: center cell residue."""
    residue, depth = node
    return Ball(w.element(residue), w.a + depth)


def _ball_node(w: Window, ball: Ball) -> tuple:
    # the tree node of a ball: its cell index modulo q^depth, and its depth below w.a
    depth = ball.scale - w.a
    return w.index_of(ball.center) % w.config.q**depth, depth


def cz_decompose(f: TestFunction, lam, start_scale: int) -> CZDecomposition:
    """Split a nonnegative f at threshold lam > 0.

    start_scale names the ball the tree walk starts from; it must contain
    the support window of f and carry average at most lam.  Selected balls
    get good_part = ball average and bad_part = f - average; elsewhere
    good_part = f and bad_part = 0.
    """
    lam_fr = Fraction(lam)
    if lam_fr <= 0:
        raise ValueError(f"threshold lambda = {lam} must be positive")
    if start_scale > f.a:
        raise ValueError(
            f"starting ball at scale {start_scale} does not contain the support "
            f"window at scale {f.a}; enlarge the starting ball (start_scale <= {f.a})"
        )
    g = refine(f, start_scale, f.l)
    vals = _real_nonneg_values(g)
    q = f.config.q
    depth_total = g.l - g.a
    n_cells = vals.size

    # exact subtree sums, bottom up; level d has q^d nodes keyed by residue mod q^d
    sums = [None] * (depth_total + 1)
    sums[depth_total] = [Fraction(x) for x in vals]
    for d in range(depth_total - 1, -1, -1):
        step = q**d
        below = sums[d + 1]
        sums[d] = [sum(below[t + c * step] for c in range(q)) for t in range(step)]

    def node_average(d: int, t: int) -> Fraction:
        return sums[d][t] * Fraction(q) ** (g.a + d - g.l)

    root_avg = node_average(0, 0)
    if root_avg > lam_fr:
        raise ValueError(
            f"average {float(root_avg):.6g} over the starting ball exceeds lambda = "
            f"{float(lam_fr):.6g}; enlarge the starting ball or raise the threshold"
        )

    w = Window(f.config, g.a, g.l)
    balls, averages = [], []
    stack = [(0, 0)]
    while stack:
        d, t = stack.pop()
        if d > 0 and node_average(d, t) > lam_fr:
            balls.append(Ball(w.element(t), g.a + d))
            averages.append(node_average(d, t))
            continue
        if d < depth_total:
            step = q**d
            stack.extend((d + 1, t + c * step) for c in range(q))

    bad = np.zeros(n_cells, dtype=np.complex128)
    good = np.array(g.values, dtype=np.complex128)
    for ball, avg in zip(balls, averages):
        residue, depth = _ball_node(w, ball)
        cells = _node_cells(n_cells, q, depth, residue)
        good[cells] = float(avg)
        bad[cells] = [float(Fraction(vals[n]) - avg) for n in cells]

    order = np.argsort([w.index_of(b.center) for b in balls])
    balls = tuple(balls[i] for i in order)
    averages = tuple(averages[i] for i in order)
    return CZDecomposition(
        lam=float(lam),
        balls=tuple(_ball_node(w, b) for b in balls),
        ball_averages=averages,
        bad_part=TestFunction(f.config, g.a, g.l, bad),
        good_part=TestFunction(f.config, g.a, g.l, good),
        exceptional_measure=sum((b.measure for b in balls), Fraction(0)),
    )


def check_cz_clauses(f: TestFunction, dec: CZDecomposition) -> tuple:
    """Exact-rational audit of every lemma clause and remark clause.

    Returns (clauses, metrics): clauses maps clause names to exact booleans,
    metrics carries the measured quantities (as floats) behind them.
    """
    if f.config != dec.bad_part.config:
        raise ValueError("decomposition belongs to a different field configuration")
    g = refine(f, dec.bad_part.a, dec.bad_part.l)
    vals = _real_nonneg_values(g)
    frs = [Fraction(x) for x in vals]
    q = f.config.q
    lam_fr = Fraction(dec.lam)
    w = Window(f.config, g.a, g.l)
    n_cells = vals.size
    measure = Fraction(q) ** (-g.l)

    balls = [node_ball(w, node) for node in dec.balls]
    ball_cells = [_node_cells(n_cells, q, d, t) for t, d in (_ball_node(w, b) for b in balls)]
    on_union = np.zeros(n_cells, dtype=bool)
    for cells in ball_cells:
        on_union[cells] = True
    off = np.flatnonzero(~on_union)

    f_l1 = sum((frs[n] for n in range(n_cells)), Fraction(0)) * measure
    bad_l1 = Fraction(0)
    good_sq = sum((frs[n] ** 2 for n in off), Fraction(0))
    good_l1 = sum((frs[n] for n in off), Fraction(0))
    mean_zero = True
    views_rounded = True
    for cells, avg in zip(ball_cells, dec.ball_averages):
        ball_sum = sum((frs[n] for n in cells), Fraction(0))
        mean_zero = mean_zero and ball_sum == len(cells) * avg
        bad_l1 += sum((abs(frs[n] - avg) for n in cells), Fraction(0)) * measure
        good_sq += len(cells) * avg**2
        good_l1 += len(cells) * avg
        fa = float(avg)
        views_rounded = views_rounded and all(
            dec.good_part.values[n] == fa
            and dec.bad_part.values[n] == float(frs[n] - avg)
            for n in cells
        )
    good_sq *= measure
    good_l1 *= measure
    good_sup = max(
        [abs(frs[n]) for n in off] + [abs(a) for a in dec.ball_averages],
        default=Fraction(0),
    )

    off_match = bool(
        np.all(dec.good_part.values[off] == g.values[off])
        and np.all(dec.bad_part.values[off] == 0)
    )
    clauses = {
        "balls_disjoint": all(
            not a.intersects(b)
            for i, a in enumerate(balls)
            for b in balls[i + 1 :]
        ),
        "measure_bound": not dec.balls or dec.exceptional_measure < f_l1 / lam_fr,
        "small_off_union": all(abs(frs[n]) <= lam_fr for n in off),
        "good_bounded_on_union": all(abs(a) <= q * lam_fr for a in dec.ball_averages),
        "good_matches_f_off": off_match,
        "bad_vanishes_off": bool(np.all(dec.bad_part.values[off] == 0)),
        "bad_mean_zero_per_ball": mean_zero,
        "sum_identity": views_rounded,
        "remark_bad_l1_at_most_double": bad_l1 <= 2 * f_l1,
        "remark_bad_l1_within_f_l1": bad_l1 <= f_l1,
        "remark_good_sup": good_sup <= q * lam_fr,
        "remark_good_sq_integrable": good_sq <= q * lam_fr * f_l1,
    }
    float_dev = (
        float(np.max(np.abs(g.values - dec.bad_part.values - dec.good_part.values)))
        if n_cells
        else 0.0
    )
    metrics = {
        "f_l1": float(f_l1),
        "bad_l1": float(bad_l1),
        "good_l1": float(good_l1),
        "good_sup": float(good_sup),
        "good_sq_integral": float(good_sq),
        "exceptional_measure": float(dec.exceptional_measure),
        "ball_count": len(dec.balls),
        "float_view_max_dev": float_dev,
    }
    return clauses, metrics

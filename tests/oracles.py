"""Independent oracles used across the test suite.

Correlation and MSE oracles run on exact rational arithmetic (fractions)
with a 50-digit square root, so they are trustworthy to far below the
1e-12 comparison tolerance. Ranks come from a brute-force average-rank
definition. Gradient oracles use central finite differences on parameter
draws rejected until every ReLU pre-activation sits clear of its kink,
where the difference quotient is exact up to float rounding. They
differentiate the reference forward passes below, written out as the
model equations read, not sqkit's packed forward.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
import numpy as np

mpmath.mp.dps = 50


def mse_oracle(true_vals, pred_vals) -> float:
    n = len(true_vals)
    total = sum((Fraction(p) - Fraction(t)) ** 2 for t, p in zip(true_vals, pred_vals))
    return float(Fraction(total, n))


def pearson_oracle(x_vals, y_vals) -> float:
    """Sample Pearson r with exact centered sums and a 50-digit sqrt."""
    n = len(x_vals)
    xs = [Fraction(v) for v in x_vals]
    ys = [Fraction(v) for v in y_vals]
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    sxx = sum((a - mx) ** 2 for a in xs)
    syy = sum((b - my) ** 2 for b in ys)
    if sxx == 0 or syy == 0:
        raise ZeroDivisionError("constant input")
    num = mpmath.mpf(sxy.numerator) / mpmath.mpf(sxy.denominator)
    den = mpmath.sqrt(
        (mpmath.mpf(sxx.numerator) / mpmath.mpf(sxx.denominator))
        * (mpmath.mpf(syy.numerator) / mpmath.mpf(syy.denominator))
    )
    return float(num / den)


def average_ranks_oracle(values) -> list[float]:
    """1-based ranks; ties get the mean of the positions they occupy."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [Fraction(0)] * len(values)
    pos = 0
    while pos < len(order):
        end = pos
        while end + 1 < len(order) and values[order[end + 1]] == values[order[pos]]:
            end += 1
        mean_rank = Fraction(sum(range(pos + 1, end + 2)), end - pos + 1)
        for j in range(pos, end + 1):
            ranks[order[j]] = mean_rank
        pos = end + 1
    return [float(r) for r in ranks]


def spearman_oracle(x_vals, y_vals) -> float:
    return pearson_oracle(average_ranks_oracle(x_vals), average_ranks_oracle(y_vals))


def softmax_oracle(exponents) -> list[float]:
    """High-precision softmax over the given exponents."""
    exps = [mpmath.e ** mpmath.mpf(repr(float(v))) for v in exponents]
    total = sum(exps)
    return [float(e / total) for e in exps]


def central_difference(fn, arrays: dict[str, np.ndarray], name: str, index, h: float = 1e-4) -> float:
    """d fn / d arrays[name][index] by central differences; fn(arrays) -> float."""
    bumped = {k: v.copy() for k, v in arrays.items()}
    bumped[name][index] += h
    up = fn(bumped)
    bumped[name][index] -= 2 * h
    down = fn(bumped)
    return (up - down) / (2 * h)


def check_gradients(fn, arrays: dict[str, np.ndarray], analytic: dict[str, np.ndarray], h: float = 1e-4) -> float:
    """Max relative error of analytic vs central-difference gradients."""
    worst = 0.0
    for name, grad in analytic.items():
        it = np.nditer(grad, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            fd = central_difference(fn, arrays, name, idx, h)
            rel = abs(float(grad[idx]) - fd) / (abs(fd) + 1e-8)
            worst = max(worst, rel)
    return worst


def draw_clear_of_kinks(draw_fn, preact_fn, margin: float = 5e-3, max_tries: int = 200):
    """Redraw until every ReLU pre-activation is at least margin from zero.

    draw_fn() -> candidate, preact_fn(candidate) -> list of pre-activation
    arrays. Keeps finite differences (h = 1e-4) on one linear piece.
    """
    for _ in range(max_tries):
        candidate = draw_fn()
        if all(np.min(np.abs(pre)) > margin for pre in preact_fn(candidate)):
            return candidate
    raise RuntimeError("could not draw parameters clear of ReLU kinks")


def head_raw_reference(params, frames) -> float:
    """One utterance's head score as the equations read: the np.mean of
    w2 . relu(W1^T x_t + b1) + b2 over its frames."""
    hidden = np.maximum(frames @ params.w1 + params.b1, 0.0)
    return float(np.mean(hidden @ params.w2 + params.b2))


def alignnet_raw_reference(params, frames, dataset_id) -> float:
    """One utterance's alignnet score as the equations read: the table row
    of dataset_id concatenated onto every trunk frame, then the decoder,
    then np.mean over the frames."""
    row = params.table[params.row_index(dataset_id)]
    trunk = np.maximum(frames @ params.w1 + params.b1, 0.0)
    fused = np.concatenate([trunk, np.broadcast_to(row, (trunk.shape[0], len(row)))], axis=1)
    dec = np.maximum(fused @ params.v1 + params.c1, 0.0)
    return float(np.mean(dec @ params.v2 + params.c2))

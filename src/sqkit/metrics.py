"""Utterance- and system-level metrics plus cross-test-set aggregation.

Correlations on constant vectors are undefined and raise
:class:`UndefinedCorrelationError` instead of silently returning 0 or NaN.
Spearman uses average ranks for ties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedCorrelationError, UndefinedRatioError, ValidationError

__all__ = [
    "EvalPairs",
    "BenchCell",
    "BenchMatrix",
    "mse",
    "pearson",
    "spearman",
    "system_aggregate",
    "best_score_difference",
    "best_score_ratio",
    "best_values",
    "aggregate",
    "DEFAULT_METRIC_KEYS",
]


@dataclass(frozen=True)
class EvalPairs:
    """Aligned true/predicted scores for one evaluation.

    ``system_ids`` entries may be None; system-level metrics require all of
    them to be present.
    """

    sample_ids: tuple[str, ...]
    system_ids: tuple[str | None, ...]
    true: np.ndarray
    pred: np.ndarray

    def __post_init__(self):
        true = np.asarray(self.true, dtype=np.float64)
        pred = np.asarray(self.pred, dtype=np.float64)
        object.__setattr__(self, "true", true)
        object.__setattr__(self, "pred", pred)
        n = len(self.sample_ids)
        if n == 0:
            raise ValidationError("EvalPairs must be non-empty")
        if not (len(self.system_ids) == true.shape[0] == pred.shape[0] == n):
            raise ValidationError("EvalPairs fields must have equal length")
        if not (np.all(np.isfinite(true)) and np.all(np.isfinite(pred))):
            raise ValidationError("EvalPairs values must be finite")

    def __len__(self) -> int:
        return len(self.sample_ids)

    @property
    def has_systems(self) -> bool:
        return all(s is not None for s in self.system_ids)


def mse(pairs: EvalPairs) -> float:
    """Mean squared error between predictions and true scores."""
    diff = pairs.pred - pairs.true
    return float(np.mean(diff * diff))


def _pearson_xy(x: np.ndarray, y: np.ndarray) -> float:
    if x.shape[0] < 2:
        raise UndefinedCorrelationError("pearson requires at least 2 points")
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(xc @ xc)
    syy = float(yc @ yc)
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelationError("pearson is undefined for a constant vector")
    # Clamped: rounding can carry an exactly linear pair past 1, and a
    # checkpoint would then beat an equal one on last-bit noise.
    return float(np.clip((xc @ yc) / np.sqrt(sxx * syy), -1.0, 1.0))


def pearson(pairs: EvalPairs) -> float:
    """Sample Pearson correlation of (true, pred)."""
    return _pearson_xy(pairs.true, pairs.pred)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; each run of equal values gets the mean of the
    positions it spans (scipy.stats.rankdata's "average" method)."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + ends + 1) / 2, ends - starts)
    return ranks


def spearman(pairs: EvalPairs) -> float:
    """Spearman rank correlation: Pearson on average ranks (ties averaged)."""
    try:
        return _pearson_xy(_average_ranks(pairs.true), _average_ranks(pairs.pred))
    except UndefinedCorrelationError:
        raise UndefinedCorrelationError("spearman is undefined: zero rank variance")


def system_aggregate(pairs: EvalPairs) -> EvalPairs:
    """Collapse to one pair per system: mean true and mean pred.

    Output is sorted by system id, so it is invariant to utterance order.
    """
    if not pairs.has_systems:
        raise ValidationError("system_aggregate requires a system_id on every pair")
    systems = sorted(set(pairs.system_ids))  # type: ignore[type-var]
    true_means = []
    pred_means = []
    for sysid in systems:
        idx = [i for i, s in enumerate(pairs.system_ids) if s == sysid]
        true_means.append(float(np.mean(pairs.true[idx])))
        pred_means.append(float(np.mean(pairs.pred[idx])))
    return EvalPairs(
        sample_ids=tuple(systems),
        system_ids=tuple(systems),
        true=np.array(true_means),
        pred=np.array(pred_means),
    )


def best_score_difference(model_mse: float, best_mse: float) -> float:
    """Model MSE minus the best model's MSE (0 means this model is best)."""
    return float(model_mse) - float(best_mse)


def best_score_ratio(model_corr: float, best_corr: float) -> float:
    """Model correlation over the best model's correlation, in percent.

    Undefined unless the best correlation is positive: over a negative
    best, a worse model would rate above 100."""
    if best_corr <= 0.0:
        raise UndefinedRatioError(f"best correlation {best_corr!r} is not positive; ratio undefined")
    return 100.0 * float(model_corr) / float(best_corr)


# Per-domain choice of (error metric, correlation metric) per cell.
DEFAULT_METRIC_KEYS: dict[str, tuple[str, str]] = {
    "synthetic": ("sys_mse", "sys_srcc"),
    "non-synthetic": ("utt_mse", "utt_lcc"),
}


def _metric_keys(test_domains: dict[str, str], test: str) -> tuple[str, str]:
    domain = test_domains.get(test)
    if domain not in DEFAULT_METRIC_KEYS:
        raise ValidationError(f"test set {test!r} has domain tag {domain!r}, not one of {sorted(DEFAULT_METRIC_KEYS)}")
    return DEFAULT_METRIC_KEYS[domain]


def _metric(records: dict[tuple[str, str], dict[str, float]], cell: tuple[str, str], key: str) -> float:
    if key not in records[cell]:
        raise ValidationError(f"records for ({cell[0]}, {cell[1]}) lack {key}")
    return float(records[cell][key])


@dataclass(frozen=True)
class BenchCell:
    """One (model, test) cell after aggregation."""

    mse: float
    corr: float
    difference: float
    ratio: float


@dataclass
class BenchMatrix:
    """Per-(model, test) best-score results plus averages.

    ``averages[model]`` maps each domain tag plus ``"average"`` to a
    (mean difference, mean ratio) tuple; the overall average weights every
    test set equally.
    """

    model_ids: list[str]
    test_ids: list[str]
    cells: dict[tuple[str, str], BenchCell]
    averages: dict[str, dict[str, tuple[float, float]]]


def best_values(
    records: dict[tuple[str, str], dict[str, float]], test_domains: dict[str, str]
) -> dict[str, tuple[float, float]]:
    """Per test set, the lowest error and the highest correlation among the
    models in ``records`` (``{(model, test): {metric: value}}``):
    ``{test_id: (best_mse, best_corr)}``. The metrics are chosen per domain
    tag (``DEFAULT_METRIC_KEYS``): system-level MSE/SRCC for synthetic
    sets, utterance-level MSE/LCC otherwise."""
    best = {}
    for test in sorted({t for _, t in records}):
        mse_key, corr_key = _metric_keys(test_domains, test)
        family = [cell for cell in records if cell[1] == test]
        best[test] = (
            min(_metric(records, c, mse_key) for c in family),
            max(_metric(records, c, corr_key) for c in family),
        )
    return best


def aggregate(
    records: dict[tuple[str, str], dict[str, float]],
    test_domains: dict[str, str],
    best: dict[str, tuple[float, float]] | None = None,
) -> BenchMatrix:
    """Fill best-score differences/ratios for a (model, test) grid of
    metric records (``{(model, test): {metric: value}}``).

    ``best`` maps each test set to its (best_mse, best_corr), as
    :func:`best_values` computes them; by default they are the best values
    among the models in ``records`` (within-family). Pass
    ``best_values(reference_records, ...)`` to score against an external
    reference. A best correlation that is not positive raises
    :class:`UndefinedRatioError`.
    """
    model_ids = sorted({m for m, _ in records})
    test_ids = sorted({t for _, t in records})
    if not model_ids or not test_ids:
        raise ValidationError("aggregate requires at least one record")
    missing = [(m, t) for t in test_ids for m in model_ids if (m, t) not in records]
    if missing:
        raise ValidationError(f"missing record for {missing[0]!r}")
    if best is None:
        best = best_values(records, test_domains)

    cells: dict[tuple[str, str], BenchCell] = {}
    for t in test_ids:
        mse_key, corr_key = _metric_keys(test_domains, t)
        if t not in best:
            raise ValidationError(f"no best values for test set {t!r}")
        best_mse, best_corr = best[t]
        for m in model_ids:
            cell_mse, cell_corr = _metric(records, (m, t), mse_key), _metric(records, (m, t), corr_key)
            cells[m, t] = BenchCell(
                mse=cell_mse,
                corr=cell_corr,
                difference=best_score_difference(cell_mse, best_mse),
                ratio=best_score_ratio(cell_corr, best_corr),
            )

    groups = {d: [t for t in test_ids if test_domains[t] == d] for d in sorted({test_domains[t] for t in test_ids})}
    groups["average"] = test_ids
    averages = {
        m: {
            group: (
                float(np.mean([cells[m, t].difference for t in tests])),
                float(np.mean([cells[m, t].ratio for t in tests])),
            )
            for group, tests in groups.items()
        }
        for m in model_ids
    }

    return BenchMatrix(model_ids=model_ids, test_ids=test_ids, cells=cells, averages=averages)

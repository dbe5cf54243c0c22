"""Metric correctness against exact-arithmetic oracles and hand values."""

import numpy as np
import pytest

from sqkit import (
    EvalPairs,
    UndefinedCorrelationError,
    UndefinedRatioError,
    ValidationError,
    aggregate,
    best_score_difference,
    best_score_ratio,
    best_values,
    mse,
    pearson,
    spearman,
    system_aggregate,
)
from sqkit.cli import metric_values
from sqkit.metrics import _average_ranks

from oracles import average_ranks_oracle, mse_oracle, pearson_oracle, spearman_oracle


def make_pairs(true, pred, systems=None):
    n = len(true)
    return EvalPairs(
        sample_ids=tuple(f"u{i}" for i in range(n)),
        system_ids=tuple(systems) if systems is not None else (None,) * n,
        true=np.asarray(true, dtype=np.float64),
        pred=np.asarray(pred, dtype=np.float64),
    )


def random_vectors(rng, with_ties: bool):
    n = int(rng.integers(2, 51))
    x = rng.normal(size=n)
    y = rng.normal(size=n)
    if with_ties and n >= 3:
        # Quantizing forces duplicated values on both sides.
        x = np.round(x, 1)
        y = np.round(y, 1)
    # Constant vectors are the undefined case, tested separately.
    if np.all(x == x[0]):
        x[0] += 1.0
    if np.all(y == y[0]):
        y[0] += 1.0
    return x, y


class TestMse:
    def test_perfect_predictions(self):
        assert mse(make_pairs([1.0, 2.5, 4.0], [1.0, 2.5, 4.0])) == 0.0

    def test_constant_offset_one(self):
        assert mse(make_pairs([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])) == pytest.approx(1.0, rel=0, abs=0)

    def test_matches_exact_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            x, y = random_vectors(rng, with_ties=False)
            assert mse(make_pairs(x, y)) == pytest.approx(mse_oracle(x, y), rel=1e-13)


class TestPearson:
    def test_positive_affine_is_one(self):
        x = np.array([0.3, 1.7, 2.2, 5.0])
        assert pearson(make_pairs(x, 2 * x + 1)) == pytest.approx(1.0, abs=1e-12)

    def test_negation_is_minus_one(self):
        x = np.array([1.0, 2.0, 4.0])
        assert pearson(make_pairs(x, -x)) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_exact_oracle(self):
        rng = np.random.default_rng(202)
        for _ in range(100):
            x, y = random_vectors(rng, with_ties=False)
            assert pearson(make_pairs(x, y)) == pytest.approx(pearson_oracle(x, y), abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(303)
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        base = pearson(make_pairs(x, y))
        assert pearson(make_pairs(3.5 * x + 2, y)) == pytest.approx(base, abs=1e-12)
        assert pearson(make_pairs(x, 0.1 * y - 7)) == pytest.approx(base, abs=1e-12)
        assert pearson(make_pairs(-2 * x, y)) == pytest.approx(-base, abs=1e-12)

    def test_never_leaves_minus_one_to_one(self):
        # Rounding carries about a quarter of exactly linear pairs past 1
        # unclamped; a model-selection ledger would then rank a checkpoint
        # above an equal one on last-bit noise.
        rng = np.random.default_rng(404)
        values = []
        for _ in range(2000):
            x = rng.normal(size=int(rng.integers(2, 51)))
            values += [pearson(make_pairs(x, 3 * x + 1.7)), pearson(make_pairs(x, -3 * x + 1.7))]
            values.append(spearman(make_pairs(x, 3 * x + 1.7)))
        assert max(values) == 1.0 and min(values) == -1.0

    def test_constant_vector_is_undefined(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson(make_pairs([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))
        with pytest.raises(UndefinedCorrelationError):
            pearson(make_pairs([2.0], [3.0]))


class TestSpearman:
    def test_strictly_monotone_map_is_one(self):
        rng = np.random.default_rng(404)
        x = rng.normal(size=30)
        assert spearman(make_pairs(x, np.exp(x))) == pytest.approx(1.0, abs=1e-12)

    def test_reversed_order_is_minus_one(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert spearman(make_pairs(x, x[::-1].copy())) == pytest.approx(-1.0, abs=1e-12)

    def test_tie_case_average_ranks(self):
        # Ranks of [1,2,2,3] are [1, 2.5, 2.5, 4]; against [1,2,3,4] this
        # gives 3/sqrt(10).
        value = spearman(make_pairs([1.0, 2.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]))
        assert value == pytest.approx(3.0 / np.sqrt(10.0), abs=1e-12)
        assert value == pytest.approx(spearman_oracle([1.0, 2.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]), abs=1e-12)

    def test_matches_brute_force_oracle_with_ties(self):
        rng = np.random.default_rng(505)
        for _ in range(100):
            x, y = random_vectors(rng, with_ties=True)
            try:
                expected = spearman_oracle(x, y)
            except ZeroDivisionError:
                with pytest.raises(UndefinedCorrelationError):
                    spearman(make_pairs(x, y))
                continue
            assert spearman(make_pairs(x, y)) == pytest.approx(expected, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(606)
        x = rng.normal(size=25)
        y = rng.normal(size=25)
        base = spearman(make_pairs(x, y))
        assert spearman(make_pairs(x**3, y)) == pytest.approx(base, abs=1e-12)
        assert spearman(make_pairs(x, np.exp(y))) == pytest.approx(base, abs=1e-12)

    def test_equals_pearson_when_all_distinct(self):
        rng = np.random.default_rng(707)
        x = rng.permutation(12).astype(float)
        y = rng.permutation(12).astype(float)
        assert spearman(make_pairs(x, y)) == pytest.approx(pearson(make_pairs(x, y)), abs=1e-12)

    def test_tied_ranks_everywhere_is_undefined(self):
        with pytest.raises(UndefinedCorrelationError):
            spearman(make_pairs([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]))


class TestAverageRanks:
    @pytest.mark.parametrize(
        "values",
        [
            [1.0, 2.0, 2.0, 3.0],
            [3.0, 1.0, 3.0, 1.0, 2.0, 3.0],
            [2.5, 2.5, 2.5, 2.5],
            [7.0],
            [0.0, -0.0, 1.0, -0.0, -1.0, 0.0],
            [5.0, 4.0, 3.0, 3.0, 2.0, 1.0],
        ],
        ids=["ties", "interleaved-ties", "all-equal", "one", "signed-zeros", "reversed"],
    )
    def test_matches_oracle(self, values):
        ranks = _average_ranks(np.array(values))
        assert ranks.dtype == np.float64
        assert ranks.tolist() == average_ranks_oracle(values)

    def test_matches_oracle_on_random_vectors(self):
        rng = np.random.default_rng(808)
        for _ in range(200):
            x, y = random_vectors(rng, with_ties=True)
            assert _average_ranks(x).tolist() == average_ranks_oracle(x.tolist())
            assert _average_ranks(y).tolist() == average_ranks_oracle(y.tolist())

    def test_bit_identical_to_scipy_rankdata(self):
        rankdata = pytest.importorskip("scipy.stats").rankdata
        rng = np.random.default_rng(909)
        for i in range(2000):
            n = int(rng.integers(1, 60))
            values = rng.integers(-3, 4, n).astype(float) if i % 2 else rng.normal(size=n)
            values[rng.random(n) < 0.2] = -0.0
            ranks = _average_ranks(values)
            expected = rankdata(values, method="average")
            assert ranks.dtype == expected.dtype and ranks.tobytes() == expected.tobytes()


class TestSystemAggregate:
    def test_one_utterance_per_system_is_identity(self):
        pairs = make_pairs([1.0, 3.0, 5.0], [1.5, 2.5, 4.5], systems=["a", "b", "c"])
        agg = system_aggregate(pairs)
        np.testing.assert_array_equal(agg.true, pairs.true)
        np.testing.assert_array_equal(agg.pred, pairs.pred)

    def test_two_by_two_hand_means(self):
        pairs = make_pairs(
            [1.0, 2.0, 3.0, 5.0],
            [1.0, 1.0, 4.0, 5.0],
            systems=["s1", "s2", "s1", "s2"],
        )
        agg = system_aggregate(pairs)
        assert agg.system_ids == ("s1", "s2")
        np.testing.assert_allclose(agg.true, [2.0, 3.5])
        np.testing.assert_allclose(agg.pred, [2.5, 3.0])

    def test_invariant_to_utterance_order(self):
        rng = np.random.default_rng(808)
        true = rng.uniform(1, 5, size=12)
        pred = rng.uniform(1, 5, size=12)
        systems = [f"s{i % 3}" for i in range(12)]
        base = system_aggregate(make_pairs(true, pred, systems))
        perm = rng.permutation(12)
        shuffled = system_aggregate(
            make_pairs(true[perm], pred[perm], [systems[i] for i in perm])
        )
        np.testing.assert_allclose(base.true, shuffled.true)
        np.testing.assert_allclose(base.pred, shuffled.pred)

    def test_duplicating_a_system_leaves_means_unchanged(self):
        true = [1.0, 2.0, 4.0, 4.4]
        pred = [1.1, 2.2, 3.9, 4.5]
        systems = ["a", "a", "b", "b"]
        base = system_aggregate(make_pairs(true, pred, systems))
        doubled = system_aggregate(
            make_pairs(true + true[:2], pred + pred[:2], systems + ["a", "a"])
        )
        np.testing.assert_allclose(base.true, doubled.true)
        np.testing.assert_allclose(base.pred, doubled.pred)

    def test_missing_system_id_rejected(self):
        pairs = make_pairs([1.0, 2.0], [1.0, 2.0], systems=["a", None])
        with pytest.raises(ValidationError):
            system_aggregate(pairs)


class TestBestScore:
    def test_best_model_is_zero_and_hundred(self):
        assert best_score_difference(0.5, 0.5) == 0.0
        assert best_score_ratio(0.9, 0.9) == pytest.approx(100.0)

    def test_difference_hand_value(self):
        assert best_score_difference(1.394, 0.5) == pytest.approx(0.894, abs=1e-12)

    def test_ratio_hand_value(self):
        assert best_score_ratio(0.684, 0.855) == pytest.approx(80.0, abs=1e-12)

    def test_zero_best_correlation_is_undefined(self):
        with pytest.raises(UndefinedRatioError):
            best_score_ratio(0.5, 0.0)

    def test_negative_best_correlation_is_undefined(self):
        # Over a negative best, the worse model would rate 200 and the best 100.
        with pytest.raises(UndefinedRatioError, match="not positive"):
            best_score_ratio(-0.4, -0.2)
        records = {("m1", "t"): {"utt_mse": 0.5, "utt_lcc": -0.2}, ("m2", "t"): {"utt_mse": 0.6, "utt_lcc": -0.4}}
        with pytest.raises(UndefinedRatioError):
            aggregate(records, {"t": "non-synthetic"})


class TestMetricValues:
    """cli.metric_values is the one six-metric table records are written from."""

    def test_system_fields_absent_without_ids(self):
        values = metric_values(make_pairs([1.0, 2.0, 3.0], [1.1, 2.1, 2.9]))
        assert sorted(values) == ["utt_lcc", "utt_mse", "utt_srcc"]
        # A synthetic test set is scored on system metrics, which these records lack.
        with pytest.raises(ValidationError, match=r"records for \(m, t\) lack sys_mse"):
            aggregate({("m", "t"): values}, {"t": "synthetic"})

    def test_fields_match_direct_calls(self):
        pairs = make_pairs(
            [1.0, 2.0, 3.0, 4.0],
            [1.2, 2.1, 3.3, 3.9],
            systems=["a", "a", "b", "b"],
        )
        values = metric_values(pairs)
        assert values["utt_mse"] == pytest.approx(mse(pairs))
        assert values["utt_lcc"] == pytest.approx(pearson(pairs))
        assert values["utt_srcc"] == pytest.approx(spearman(pairs))
        sys_pairs = system_aggregate(pairs)
        assert values["sys_mse"] == pytest.approx(mse(sys_pairs))
        assert values["sys_lcc"] == pytest.approx(pearson(sys_pairs))
        assert values["sys_srcc"] == pytest.approx(spearman(sys_pairs))


def report_with(**kwargs) -> dict[str, float]:
    """One (model, test) cell's metric record: utterance metrics plus kwargs."""
    return {"utt_mse": 9.0, "utt_lcc": 0.1, "utt_srcc": 0.1, **kwargs}


class TestAggregate:
    DOMAINS = {"t1": "synthetic", "t2": "non-synthetic"}

    def spreadsheet_reports(self):
        return {
            ("m1", "t1"): report_with(sys_mse=0.50, sys_lcc=0.9, sys_srcc=0.90),
            ("m2", "t1"): report_with(sys_mse=0.30, sys_lcc=0.6, sys_srcc=0.60),
            ("m3", "t1"): report_with(sys_mse=0.80, sys_lcc=0.75, sys_srcc=0.75),
            ("m1", "t2"): report_with(utt_mse=1.00, utt_lcc=0.40),
            ("m2", "t2"): report_with(utt_mse=0.25, utt_lcc=0.80),
            ("m3", "t2"): report_with(utt_mse=0.50, utt_lcc=0.50),
        }

    def test_single_model_all_zero_and_hundred(self):
        reports = {("m", "t1"): report_with(sys_mse=0.4, sys_srcc=0.7), ("m", "t2"): report_with()}
        matrix = aggregate(reports, self.DOMAINS)
        for test in ("t1", "t2"):
            assert matrix.cells["m", test].difference == 0.0
            assert matrix.cells["m", test].ratio == pytest.approx(100.0)

    def test_dominating_model_is_best_everywhere(self):
        reports = {
            ("good", "t1"): report_with(sys_mse=0.2, sys_srcc=0.95),
            ("bad", "t1"): report_with(sys_mse=0.9, sys_srcc=0.30),
            ("good", "t2"): report_with(utt_mse=0.2, utt_lcc=0.95),
            ("bad", "t2"): report_with(utt_mse=0.9, utt_lcc=0.30),
        }
        matrix = aggregate(reports, self.DOMAINS)
        for test in ("t1", "t2"):
            assert matrix.cells["good", test].difference == 0.0
            assert matrix.cells["good", test].ratio == pytest.approx(100.0)

    def test_three_by_two_spreadsheet_oracle(self):
        matrix = aggregate(self.spreadsheet_reports(), self.DOMAINS)
        approx = lambda v: pytest.approx(v, rel=1e-12)

        assert matrix.cells["m1", "t1"].difference == approx(0.2)
        assert matrix.cells["m2", "t1"].difference == 0.0
        assert matrix.cells["m3", "t1"].difference == approx(0.5)
        assert matrix.cells["m1", "t1"].ratio == approx(100.0)
        assert matrix.cells["m2", "t1"].ratio == approx(100.0 * 0.60 / 0.90)
        assert matrix.cells["m3", "t1"].ratio == approx(100.0 * 0.75 / 0.90)

        assert matrix.cells["m1", "t2"].difference == approx(0.75)
        assert matrix.cells["m2", "t2"].difference == 0.0
        assert matrix.cells["m3", "t2"].difference == approx(0.25)
        assert matrix.cells["m1", "t2"].ratio == approx(50.0)
        assert matrix.cells["m2", "t2"].ratio == approx(100.0)
        assert matrix.cells["m3", "t2"].ratio == approx(62.5)

        assert matrix.averages["m1"]["synthetic"] == (approx(0.2), approx(100.0))
        assert matrix.averages["m1"]["non-synthetic"] == (approx(0.75), approx(50.0))
        assert matrix.averages["m1"]["average"] == (approx(0.475), approx(75.0))
        assert matrix.averages["m2"]["average"] == (approx(0.0), approx((100.0 * 0.6 / 0.9 + 100.0) / 2))
        assert matrix.averages["m3"]["average"] == (approx(0.375), approx((100.0 * 0.75 / 0.9 + 62.5) / 2))

    def test_within_family_invariant_on_random_matrices(self):
        rng = np.random.default_rng(909)
        for _ in range(20):
            models = [f"m{i}" for i in range(int(rng.integers(2, 6)))]
            tests = [f"t{i}" for i in range(int(rng.integers(1, 5)))]
            domains = {t: ("synthetic" if rng.uniform() < 0.5 else "non-synthetic") for t in tests}
            reports = {
                (m, t): report_with(
                    utt_mse=float(rng.uniform(0.05, 2.0)),
                    utt_lcc=float(rng.uniform(0.1, 0.95)),
                    sys_mse=float(rng.uniform(0.05, 2.0)),
                    sys_srcc=float(rng.uniform(0.1, 0.95)),
                )
                for m in models
                for t in tests
            }
            matrix = aggregate(reports, domains)
            for t in tests:
                diffs = [matrix.cells[m, t].difference for m in models]
                ratios = [matrix.cells[m, t].ratio for m in models]
                assert min(diffs) == pytest.approx(0.0, abs=1e-15)
                assert max(ratios) == pytest.approx(100.0, rel=1e-12)
                assert all(d >= -1e-15 for d in diffs)

    def test_external_reference_policy(self):
        reports = {
            ("mine", "t1"): report_with(sys_mse=0.5, sys_srcc=0.8),
            ("mine", "t2"): report_with(utt_mse=0.5, utt_lcc=0.4),
        }
        # A peer that matches the reference exactly is the reference's best.
        reports[("peer", "t1")] = report_with(sys_mse=0.25, sys_srcc=0.9)
        reports[("peer", "t2")] = report_with(utt_mse=0.1, utt_lcc=0.8)
        best = {"t1": (0.25, 0.9), "t2": (0.1, 0.8)}
        matrix = aggregate(reports, self.DOMAINS, best=best)
        assert matrix.cells["mine", "t1"].difference == pytest.approx(0.25)
        assert matrix.cells["mine", "t1"].ratio == pytest.approx(100.0 * 0.8 / 0.9)
        assert matrix.cells["mine", "t2"].difference == pytest.approx(0.4)
        assert matrix.cells["mine", "t2"].ratio == pytest.approx(50.0)
        for test in ("t1", "t2"):
            assert matrix.cells["peer", test].difference == 0.0
            assert matrix.cells["peer", test].ratio == 100.0

    def test_best_values_take_each_metric_from_its_best_model(self):
        # t1 (synthetic) reads sys_mse/sys_srcc, t2 utt_mse/utt_lcc; the
        # lowest error and the highest correlation may come from two models.
        best = best_values(self.spreadsheet_reports(), self.DOMAINS)
        assert best == {"t1": (0.30, 0.90), "t2": (0.25, 0.80)}

    def test_within_family_is_aggregate_against_its_own_best_values(self):
        reports = self.spreadsheet_reports()
        default = aggregate(reports, self.DOMAINS)
        explicit = aggregate(reports, self.DOMAINS, best=best_values(reports, self.DOMAINS))
        assert default == explicit

    def test_best_values_missing_a_test_rejected(self):
        with pytest.raises(ValidationError, match="'t2'"):
            aggregate(self.spreadsheet_reports(), self.DOMAINS, best={"t1": (0.3, 0.9)})

    @pytest.mark.parametrize("domains", [{"t1": "synthetic"}, {"t1": "synthetic", "t2": "pooled"}])
    def test_test_set_without_a_known_domain_tag_rejected(self, domains):
        with pytest.raises(ValidationError, match="test set 't2' has domain tag"):
            best_values(self.spreadsheet_reports(), domains)
        with pytest.raises(ValidationError, match="test set 't2' has domain tag"):
            aggregate(self.spreadsheet_reports(), domains, best={"t1": (0.3, 0.9), "t2": (0.25, 0.8)})

    def test_missing_cell_rejected(self):
        reports = self.spreadsheet_reports()
        del reports[("m3", "t2")]
        with pytest.raises(ValidationError):
            aggregate(reports, self.DOMAINS)


class TestEvalPairsValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            EvalPairs(sample_ids=(), system_ids=(), true=np.array([]), pred=np.array([]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            make_pairs([1.0, np.nan], [1.0, 2.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            EvalPairs(
                sample_ids=("a", "b"),
                system_ids=(None,),
                true=np.array([1.0, 2.0]),
                pred=np.array([1.0, 2.0]),
            )

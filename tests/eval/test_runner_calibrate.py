"""Tests for the experiment runner and threshold calibration."""

import pytest

from repro.eval.calibrate import (ItemStatistic, calibrate_baseline,
                                  collect_statistics, pick_threshold,
                                  sweep_threshold)
from repro.eval.confusion import ConfusionMatrix
from repro.eval.runner import (CLEAN_SCALE_FACTOR, METHOD_NAMES,
                               ItemOutcome, evaluate_corpus, make_method)
from repro.exceptions import EvaluationError
from repro.synthetic.dataset import CorpusSpec, EvaluationCorpus


@pytest.fixture(scope="module")
def tiny_corpus():
    return list(EvaluationCorpus(CorpusSpec(scale=0.012, seed=99)))


class TestItemOutcome:
    def test_delay(self):
        outcome = ItemOutcome(positive=True, detection_index=75)
        assert outcome.delay(truth_start=60) == 15
        assert outcome.delay(truth_start=80) == 0

    def test_no_detection_no_delay(self):
        assert ItemOutcome(positive=False).delay(60) is None


class TestMakeMethod:
    def test_all_methods_constructible(self):
        for name in METHOD_NAMES:
            assert callable(make_method(name))

    def test_unknown_method(self):
        with pytest.raises(EvaluationError):
            make_method("prophet")

    def test_funnel_adapter_on_item(self, tiny_corpus):
        adapter = make_method("funnel")
        outcome = adapter(tiny_corpus[0])
        assert isinstance(outcome.positive, bool)


class TestEvaluateCorpus:
    def test_funnel_beats_improved_sst_on_accuracy(self, tiny_corpus):
        methods = {"funnel": make_method("funnel"),
                   "improved_sst": make_method("improved_sst")}
        result = evaluate_corpus(tiny_corpus, methods)
        funnel = result.overall("funnel")
        sst = result.overall("improved_sst")
        assert funnel.accuracy >= sst.accuracy

    def test_strata_recorded_per_half(self, tiny_corpus):
        result = evaluate_corpus(tiny_corpus,
                                 {"funnel": make_method("funnel")})
        halves = {key[2] for key in result.strata}
        assert halves == {"inducing", "clean"}

    def test_synthesis_scales_clean_half(self, tiny_corpus):
        result = evaluate_corpus(tiny_corpus,
                                 {"funnel": make_method("funnel")})
        raw_clean = ConfusionMatrix()
        for (method, char, half), m in result.strata.items():
            if half == "clean":
                raw_clean = raw_clean + m
        synthesized_total = sum(
            result.synthesized("funnel", c).total
            for c in ("seasonal", "stationary", "variable"))
        raw_total = sum(m.total for m in result.strata.values())
        assert synthesized_total == pytest.approx(
            raw_total + (CLEAN_SCALE_FACTOR - 1) * raw_clean.total)

    def test_table1_rows_complete(self, tiny_corpus):
        result = evaluate_corpus(tiny_corpus,
                                 {"funnel": make_method("funnel")})
        rows = result.table1(methods=["funnel"])
        assert len(rows) == 3
        assert {row["type"] for row in rows} == {"seasonal", "stationary",
                                                 "variable"}

    def test_mrls_stride_rescales(self, tiny_corpus):
        # MRLS costs ~0.5 s an item: 12 items at stride 3 run it 4 times.
        items = tiny_corpus[:12]
        result = evaluate_corpus(
            items, {"mrls": make_method("mrls")}, mrls_stride=3)
        assert result.items_evaluated == len(items)
        # Every third item was assessed and counted three times, so the
        # raw strata add back up to the corpus slice.
        assert sum(matrix.total for matrix in result.strata.values()) == \
            len(items)
        assert result.overall("mrls").total > 0

    def test_invalid_stride(self, tiny_corpus):
        with pytest.raises(EvaluationError):
            evaluate_corpus(tiny_corpus, {}, mrls_stride=0)

    def test_no_methods_still_counts_items(self, tiny_corpus):
        seen = []
        result = evaluate_corpus(tiny_corpus[:4], {}, progress=seen.append)
        assert result.items_evaluated == 4
        assert seen == [0, 1, 2, 3]
        assert not result.strata

    def test_plain_callable_is_refused_by_name(self, tiny_corpus):
        funnel = make_method("funnel")
        with pytest.raises(EvaluationError, match="'homemade'"):
            evaluate_corpus(tiny_corpus[:2], {
                "funnel": funnel,
                "homemade": lambda item: funnel(item)})

    def test_progress_callback(self, tiny_corpus):
        seen = []
        evaluate_corpus(tiny_corpus[:3],
                        {"funnel": make_method("funnel")},
                        progress=seen.append)
        assert seen == [0, 1, 2]


class TestCalibration:
    def test_sweep_counts(self):
        stats = [
            ItemStatistic(statistic=5.0, positive=True, weight=1.0),
            ItemStatistic(statistic=1.0, positive=False, weight=86.0),
        ]
        sweep = sweep_threshold(stats, [0.5, 3.0, 10.0])
        # At 0.5 both fire: TP=1, FP=86 -> accuracy 1/87.
        assert sweep[0][1] == pytest.approx(1 / 87)
        # At 3.0 only the positive fires: perfect.
        assert sweep[1][1] == pytest.approx(1.0)
        assert sweep[1][2] == pytest.approx(1.0)
        # At 10 nothing fires: accuracy 86/87, recall 0.
        assert sweep[2][1] == pytest.approx(86 / 87)
        assert sweep[2][2] == 0.0

    def test_pick_threshold_honours_recall_floor(self):
        sweep = [(1.0, 0.6, 1.0), (2.0, 0.9, 0.9), (3.0, 0.99, 0.1)]
        threshold, accuracy = pick_threshold(sweep, recall_floor=0.8)
        assert threshold == 2.0
        # Without a qualifying recall the unconstrained optimum wins.
        threshold, _ = pick_threshold(sweep, recall_floor=2.0)
        assert threshold == 3.0

    def test_collect_statistics_weights(self, tiny_corpus):
        stats = collect_statistics(tiny_corpus, lambda item: 1.0)
        weights = {s.weight for s in stats}
        assert weights == {1.0, CLEAN_SCALE_FACTOR}

    def test_collect_statistics_stride(self, tiny_corpus):
        stats = collect_statistics(tiny_corpus, lambda item: 1.0, stride=2)
        assert len(stats) == (len(tiny_corpus) + 1) // 2
        assert all(s.weight in (2.0, 2.0 * CLEAN_SCALE_FACTOR)
                   for s in stats)

    def test_calibrate_cusum_runs(self, tiny_corpus):
        result = calibrate_baseline("cusum", tiny_corpus,
                                    thresholds=[4.0, 16.0, 64.0])
        assert result.method == "cusum"
        assert result.threshold in (4.0, 16.0, 64.0)
        assert 0.0 <= result.accuracy <= 1.0

    def test_calibrate_unknown_method(self, tiny_corpus):
        with pytest.raises(EvaluationError):
            calibrate_baseline("funnel", tiny_corpus)

    def test_empty_items_raise(self):
        with pytest.raises(EvaluationError):
            collect_statistics([], lambda item: 1.0)

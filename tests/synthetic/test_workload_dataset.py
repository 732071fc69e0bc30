"""Tests for correlated group generation and the evaluation corpus."""

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.synthetic.dataset import (POST_BINS, PRE_BINS, CorpusSpec,
                                     EvaluationCorpus, ItemTruth)
from repro.synthetic.effects import LevelShift
from repro.synthetic.patterns import StationaryPattern
from repro.synthetic.workload import (GroupTraceConfig,
                                      generate_group)
from repro.types import KpiCharacter, LaunchMode


class TestGenerateGroup:
    def _config(self, **kwargs):
        defaults = dict(
            pattern=StationaryPattern(level=50.0, noise_sigma=1.0),
            n_treated=4, n_control=8, n_bins=120,
        )
        defaults.update(kwargs)
        return GroupTraceConfig(**defaults)

    def test_shapes(self, rng):
        traces = generate_group(self._config(), rng)
        assert traces.treated.shape == (4, 120)
        assert traces.control.shape == (8, 120)
        assert traces.shared.shape == (120,)

    def test_spatial_correlation(self, rng):
        """Same-service units are strongly correlated (section 3.2.4,
        observation 1 — the DiD identification requirement)."""
        config = self._config(idiosyncratic_sigma=0.4,
                              pattern=StationaryPattern(
                                  level=50.0, ar_coefficient=0.8,
                                  noise_sigma=2.0))
        traces = generate_group(config, rng)
        corr = np.corrcoef(traces.treated[0], traces.control[0])[0, 1]
        assert corr > 0.7

    def test_treated_effects_only_hit_treated(self, rng):
        config = self._config(
            treated_effects=(LevelShift(start=60, magnitude=50.0),))
        traces = generate_group(config, rng)
        assert traces.treated[:, 80:].mean() > 90.0
        assert traces.control[:, 80:].mean() < 60.0

    def test_shared_effects_hit_everyone(self, rng):
        config = self._config(
            shared_effects=(LevelShift(start=60, magnitude=50.0),))
        traces = generate_group(config, rng)
        assert traces.treated[:, 80:].mean() > 90.0
        assert traces.control[:, 80:].mean() > 90.0

    def test_no_control_units(self, rng):
        traces = generate_group(self._config(n_control=0), rng)
        assert traces.control.shape == (0, 120)

    def test_hotspots_inflate_some_units(self, rng):
        config = self._config(hotspot_fraction=0.5, n_treated=20,
                              n_control=0, idiosyncratic_sigma=0.1)
        traces = generate_group(config, rng)
        means = traces.treated.mean(axis=1)
        assert means.max() - means.min() > 2.0

    def test_invalid_config(self):
        with pytest.raises(ParameterError):
            self._config(n_treated=0)
        with pytest.raises(ParameterError):
            self._config(n_bins=4)
        with pytest.raises(ParameterError):
            self._config(hotspot_fraction=2.0)


class TestCorpusSpec:
    def test_full_scale_counts_match_paper(self):
        spec = CorpusSpec(scale=1.0)
        inducing = spec.counts("inducing")
        clean = spec.counts("clean")
        assert sum(inducing.values()) == 5702
        assert sum(clean.values()) == 4280
        assert sum(inducing.values()) + sum(clean.values()) == 9982
        assert inducing[KpiCharacter.SEASONAL] == 378
        assert clean[KpiCharacter.SEASONAL] == 327
        assert spec.positives() == 968

    def test_scaled_counts_proportional(self):
        spec = CorpusSpec(scale=0.1)
        assert sum(spec.counts("inducing").values()) == pytest.approx(
            570, abs=3)

    def test_invalid(self):
        with pytest.raises(ParameterError):
            CorpusSpec(scale=0.0)


class TestEvaluationCorpus:
    @pytest.fixture(scope="class")
    def items(self):
        return list(EvaluationCorpus(CorpusSpec(scale=0.02)))

    def test_len_matches_iteration(self, items):
        corpus = EvaluationCorpus(CorpusSpec(scale=0.02))
        assert len(corpus) == len(items)

    def test_deterministic(self, items):
        again = list(EvaluationCorpus(CorpusSpec(scale=0.02)))
        assert len(again) == len(items)
        for a, b in zip(items, again):
            np.testing.assert_array_equal(a.treated, b.treated)
            assert a.truth == b.truth

    def test_positives_only_in_inducing_half(self, items):
        assert all(i.half == "inducing"
                   for i in items if i.truth.positive)
        assert sum(i.truth.positive for i in items) > 0

    def test_every_character_present(self, items):
        present = {i.character for i in items}
        assert present == set(KpiCharacter)

    def test_launch_modes_mixed(self, items):
        modes = {i.launch_mode for i in items}
        assert modes == {LaunchMode.DARK, LaunchMode.FULL}

    def test_control_xor_history(self, items):
        for item in items:
            if item.control is not None:
                assert item.launch_mode is LaunchMode.DARK
                assert not item.affected_service
                assert item.history is None
            else:
                assert item.history is not None
                assert item.history.shape[0] == 30

    def test_series_lengths(self, items):
        for item in items:
            assert item.treated.shape[1] == PRE_BINS + POST_BINS
            assert item.change_index == PRE_BINS

    def test_positive_items_have_visible_effect(self, items):
        for item in items:
            if not item.truth.positive:
                continue
            if item.truth.kind != "level_shift":
                continue
            aggregate = item.treated_aggregate
            pre = aggregate[:item.change_index].mean()
            post = aggregate[item.change_index + 30:].mean()
            assert abs(post - pre) > 0.0

    def test_truth_validation(self):
        with pytest.raises(ParameterError):
            ItemTruth(positive=True, start_index=None)

    def test_treated_aggregate_shape(self, items):
        item = items[0]
        assert item.treated_aggregate.shape == (item.treated.shape[1],)

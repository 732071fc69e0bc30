"""Tests for the difference-in-difference estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.did import DiDEstimator, DiDPanel
from repro.exceptions import InsufficientDataError, ParameterError


def make_panel(rng, n_treated=4, n_control=12, omega=30, effect=0.0,
               common_shift=0.0, noise=0.5, base=10.0):
    pre = base + rng.normal(0, noise, size=(n_treated + n_control, omega))
    post = pre + rng.normal(0, noise, size=pre.shape) + common_shift
    post[:n_treated] += effect
    return DiDPanel(pre[:n_treated], post[:n_treated],
                    pre[n_treated:], post[n_treated:])


def did_estimate(panel):
    """The double difference of Eq. 16, as the estimator fits it."""
    (result,) = DiDEstimator().fit(panel)
    return result.alpha


class TestDiDPanel:
    def test_1d_input_promoted(self):
        panel = DiDPanel([1.0, 2.0], [3.0, 4.0], [1.0, 2.0], [1.0, 2.0])
        assert panel.treated_pre.shape == panel.control_pre.shape == (1, 1, 2)

    def test_unit_count_mismatch_raises(self, rng):
        with pytest.raises(ParameterError):
            DiDPanel(rng.normal(size=(3, 5)), rng.normal(size=(2, 5)),
                     rng.normal(size=(4, 5)), rng.normal(size=(4, 5)))

    def test_empty_raises(self):
        with pytest.raises(InsufficientDataError):
            DiDPanel([], [], [], [])

    def test_nan_raises(self, rng):
        bad = rng.normal(size=(2, 5))
        bad[0, 0] = np.nan
        with pytest.raises(ParameterError):
            DiDPanel(bad, bad, bad, bad)

    def test_unit_differences(self):
        panel = DiDPanel([[0.0, 0.0]], [[2.0, 4.0]],
                         [[1.0, 1.0]], [[1.0, 1.0]])
        treated, control = panel.unit_differences()
        assert treated.tolist() == [[3.0]]
        assert control.tolist() == [[0.0]]


class TestDiDEstimate:
    def test_recovers_injected_effect(self, rng):
        panel = make_panel(rng, effect=5.0)
        assert did_estimate(panel) == pytest.approx(5.0, abs=0.5)

    def test_common_shift_cancels(self, rng):
        """Other factors hitting both groups leave alpha ~ 0 (the DiD
        identification assumption, paper section 3.2.4)."""
        panel = make_panel(rng, effect=0.0, common_shift=8.0)
        assert abs(did_estimate(panel)) < 0.5

    def test_effect_on_top_of_common_shift(self, rng):
        panel = make_panel(rng, effect=3.0, common_shift=8.0)
        assert did_estimate(panel) == pytest.approx(3.0, abs=0.5)

    def test_negative_effect(self, rng):
        panel = make_panel(rng, effect=-4.0)
        assert did_estimate(panel) == pytest.approx(-4.0, abs=0.5)

    @given(st.integers(0, 2 ** 31), st.floats(-50, 50),
           st.floats(-50, 50))
    @settings(max_examples=30, deadline=None)
    def test_double_difference_identity_property(self, seed, effect,
                                                 common):
        """alpha == (treated post-pre) - (control post-pre), Eq. 16."""
        rng = np.random.default_rng(seed)
        panel = make_panel(rng, effect=effect, common_shift=common,
                           noise=0.1)
        treated, control = panel.unit_differences()
        expected = treated.mean() - control.mean()
        assert did_estimate(panel) == pytest.approx(expected, abs=1e-9)


class TestDiDEstimator:
    def test_alpha_matches_plain_double_difference(self, rng):
        panel = make_panel(rng, effect=2.0)
        treated, control = panel.unit_differences()
        assert did_estimate(panel) == pytest.approx(
            treated.mean() - control.mean(), abs=1e-9)

    def test_significance_on_clear_effect(self, rng):
        panel = make_panel(rng, effect=5.0, noise=0.3)
        (result,) = DiDEstimator().fit(panel)
        assert result.significant(threshold=0.5)

    def test_insignificant_on_null(self, rng):
        panel = make_panel(rng, effect=0.0, noise=0.3)
        (result,) = DiDEstimator().fit(panel)
        assert not result.significant(threshold=0.5)

    def test_normalised_alpha_scale_free(self, rng):
        panel1 = make_panel(rng, effect=5.0, noise=0.5)
        rng2 = np.random.default_rng(12345)
        panel2 = make_panel(rng2, effect=500.0, noise=50.0, base=1000.0)
        (r1,) = DiDEstimator().fit(panel1)
        (r2,) = DiDEstimator().fit(panel2)
        assert r1.normalised_alpha == pytest.approx(r2.normalised_alpha,
                                                    rel=0.5)

    def test_single_unit_groups_fit_the_double_difference(self, rng):
        """One treated and one control unit — every history panel's
        treated side — still give Eq. 16's alpha."""
        pre, post = rng.normal(size=(2, 10)), rng.normal(size=(2, 10))
        panel = DiDPanel(pre[:1], post[:1], pre[1:], post[1:])
        expected = ((post[0].mean() - pre[0].mean())
                    - (post[1].mean() - pre[1].mean()))
        assert did_estimate(panel) == pytest.approx(expected, abs=1e-12)

    def test_a_stack_fits_each_panel_bitwise(self, rng):
        """Panels of one shape fitted as one stack answer what each
        panel fitted alone does, bit for bit."""
        panels = [make_panel(rng, effect=float(effect))
                  for effect in (0.0, 3.0, -2.0)]
        stacked = DiDPanel(*(np.concatenate([getattr(p, name)
                                             for p in panels])
                             for name in ("treated_pre", "treated_post",
                                          "control_pre", "control_post")))
        alone = [DiDEstimator().fit(p)[0] for p in panels]
        assert [repr(r) for r in DiDEstimator().fit(stacked)] == [
            repr(r) for r in alone]

    def test_panel_counts_must_agree(self, rng):
        with pytest.raises(ParameterError):
            DiDPanel(rng.normal(size=(2, 3, 5)), rng.normal(size=(2, 3, 5)),
                     rng.normal(size=(1, 4, 5)), rng.normal(size=(1, 4, 5)))

    def test_docstring_example(self):
        rng = np.random.default_rng(0)
        pre = rng.normal(10.0, 0.5, size=(8, 30))
        post = pre + rng.normal(0.0, 0.5, size=(8, 30))
        post[:4] += 5.0
        panel = DiDPanel(pre[:4], post[:4], pre[4:], post[4:])
        (result,) = DiDEstimator().fit(panel)
        assert round(result.alpha, 0) == 5.0

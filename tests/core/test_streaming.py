"""Tests for the online (streaming) detector and assessor."""

import numpy as np
import pytest

from repro.core.funnel import Funnel
from repro.core.scoring import declare_changes, robust_normalise
from repro.core.streaming import StreamingAssessor, StreamingDetector
from repro.exceptions import ParameterError
from repro.types import DetectedChange, Verdict


class _ReferenceDetector(StreamingDetector):
    """The pre-cache evaluation loop: full rescore on every push."""

    def _evaluate(self):
        n = len(self._values)
        if n < self.config.sst.window_length:
            return None
        local_change = self.change_index - self._offset
        baseline = max(1, min(local_change, n)) if local_change > 0 else 1
        x = np.asarray(self._values)
        normalised = robust_normalise(x, baseline=baseline)
        scores = self.scorer.scores(normalised)
        declared = declare_changes(
            normalised, scores, self.config.policy,
            lookahead=self.config.sst.lookahead - 1,
        )
        last_seen = (self._declared[-1].index if self._declared
                     else self.change_index - 1)
        for change in declared:
            absolute = DetectedChange(
                index=change.index + self._offset,
                start_index=change.start_index + self._offset,
                score=change.score,
                kind=change.kind,
                direction=change.direction,
            )
            if absolute.start_index < self.change_index - 1:
                continue
            if absolute.index <= last_seen:
                continue
            if absolute.index == self.position - 1:
                self._declared.append(absolute)
                return absolute
        return None


class TestStreamingDetector:
    def test_detects_step(self, rng):
        detector = StreamingDetector(change_index=100)
        x = 50.0 + rng.normal(0, 0.5, size=300)
        x[100:] += 5.0
        hits = detector.extend(x)
        assert hits
        assert 100 <= hits[0].start_index <= 110
        assert hits[0].direction == 1

    def test_quiet_stream_never_fires(self, rng):
        detector = StreamingDetector(change_index=100)
        x = 50.0 + rng.normal(0, 0.5, size=300)
        assert detector.extend(x) == []

    def test_matches_offline_declaration(self, rng):
        """Streaming and offline detection agree on the first change."""
        x = 50.0 + rng.normal(0, 0.5, size=300)
        x[150:] += 4.0
        offline = Funnel().detect(x, change_index=150)
        detector = StreamingDetector(change_index=150)
        online = detector.extend(x)
        assert offline and online
        assert online[0].index == offline[0].index
        assert online[0].start_index == offline[0].start_index

    def test_declaration_fires_exactly_once(self, rng):
        detector = StreamingDetector(change_index=100)
        x = 50.0 + rng.normal(0, 0.5, size=260)
        x[100:] += 5.0
        hits = [i for i, v in enumerate(x) if detector.push(v)]
        # The persistent shift produces exactly one declaration, on the
        # bin that completes its evidence.
        assert len(hits) == 1
        assert hits[0] == detector.declared[0].index

    def test_pre_change_shift_ignored(self, rng):
        detector = StreamingDetector(change_index=200)
        x = 50.0 + rng.normal(0, 0.5, size=300)
        x[80:] += 5.0            # before the software change
        assert detector.extend(x) == []

    def test_history_cap_keeps_absolute_indices(self, rng):
        detector = StreamingDetector(change_index=580, max_history=128)
        x = 50.0 + rng.normal(0, 0.5, size=700)
        x[580:] += 5.0
        hits = detector.extend(x)
        assert hits
        assert 578 <= hits[0].start_index <= 592
        assert hits[0].index >= 580

    def test_position_tracks_stream(self, rng):
        detector = StreamingDetector(change_index=10)
        detector.extend(rng.normal(size=25))
        assert detector.position == 25

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            StreamingDetector(change_index=-1)
        with pytest.raises(ParameterError):
            StreamingDetector(change_index=0, max_history=10)
        detector = StreamingDetector(change_index=0)
        with pytest.raises(ParameterError):
            detector.push(float("nan"))

    @pytest.mark.parametrize("change_index,step_index,size,max_history", [
        (100, 100, 300, 4096),  # plain step after warmup
        (0, 60, 220, 4096),     # change at stream start (baseline = 1)
        (200, 200, 320, 128),   # ring trims; baseline shifts every push
    ])
    def test_suffix_rescore_matches_full_rescore(self, rng, change_index,
                                                 step_index, size,
                                                 max_history):
        """Cached suffix scoring pushes the very bytes a full pass does.

        Every push is compared against the reference detector (which
        renormalises and rescores the whole buffer each time), and the
        cached arrays are checked bitwise against a one-shot transform
        of the final buffer.
        """
        x = 50.0 + rng.normal(0, 0.5, size=size)
        x[step_index:] += 4.0
        fast = StreamingDetector(change_index=change_index,
                                 max_history=max_history)
        slow = _ReferenceDetector(change_index=change_index,
                                  max_history=max_history)
        for value in x:
            assert fast.push(value) == slow.push(value)
        assert fast.declared == slow.declared
        assert fast.declared

        n = len(fast._values)
        local_change = change_index - fast._offset
        baseline = max(1, min(local_change, n)) if local_change > 0 else 1
        buffer = np.asarray(fast._values)
        normalised = robust_normalise(buffer, baseline=baseline)
        assert fast._norm_buf[:n].tobytes() == normalised.tobytes()
        assert (fast._score_buf[:n].tobytes()
                == fast.scorer.scores(normalised).tobytes())

    def test_quiet_stream_parity_with_full_rescore(self, rng):
        """No-declaration streams take the gated fast path throughout."""
        x = 50.0 + rng.normal(0, 0.5, size=280)
        fast = StreamingDetector(change_index=100)
        slow = _ReferenceDetector(change_index=100)
        for value in x:
            assert fast.push(value) == slow.push(value)
        assert fast.declared == slow.declared == []


class TestStreamingAssessor:
    def _streams(self, rng, effect, common=0.0, bins=260):
        shared = 50.0 + rng.normal(0, 1.0, size=bins)
        treated = shared[None, :] + rng.normal(0, 0.5, size=(3, bins))
        control = shared[None, :] + rng.normal(0, 0.5, size=(9, bins))
        treated[:, 130:] += effect
        if common:
            treated[:, 130:] += common
            control[:, 130:] += common
        return treated, control

    def test_attributes_treated_only_impact(self, rng):
        treated, control = self._streams(rng, effect=6.0)
        assessor = StreamingAssessor(change_index=130)
        outcome = None
        for t in range(treated.shape[1]):
            outcome = outcome or assessor.push(treated[:, t],
                                               control[:, t])
        assert outcome is not None
        assert outcome.verdict is Verdict.CAUSED_BY_CHANGE
        assert outcome.did_estimate > 1.0

    def test_excludes_common_event(self, rng):
        treated, control = self._streams(rng, effect=0.0, common=6.0)
        assessor = StreamingAssessor(change_index=130)
        outcome = None
        for t in range(treated.shape[1]):
            outcome = outcome or assessor.push(treated[:, t],
                                               control[:, t])
        assert outcome is not None
        assert outcome.verdict is Verdict.OTHER_REASONS

    def test_quiet_stream_no_assessment(self, rng):
        treated, control = self._streams(rng, effect=0.0)
        assessor = StreamingAssessor(change_index=130)
        for t in range(treated.shape[1]):
            assert assessor.push(treated[:, t], control[:, t]) is None
        assert assessor.assessment is None

    def test_no_control_reports_with_note(self, rng):
        treated, _ = self._streams(rng, effect=6.0)
        assessor = StreamingAssessor(change_index=130)
        outcome = None
        for t in range(treated.shape[1]):
            outcome = outcome or assessor.push(treated[:, t])
        assert outcome is not None
        assert outcome.verdict is Verdict.CAUSED_BY_CHANGE
        assert outcome.notes

    def test_unit_count_change_rejected(self, rng):
        assessor = StreamingAssessor(change_index=10)
        assessor.push([1.0, 2.0], [3.0])
        with pytest.raises(ParameterError):
            assessor.push([1.0], [3.0])
        with pytest.raises(ParameterError):
            assessor.push([1.0, 2.0], [3.0, 4.0])

    def test_empty_treated_rejected(self):
        assessor = StreamingAssessor(change_index=10)
        with pytest.raises(ParameterError):
            assessor.push([])

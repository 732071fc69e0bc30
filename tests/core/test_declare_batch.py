"""The batched declaration-to-verdict stage against its one-item references.

``core.scoring._declared_changes`` declares every chain of a pass at once
and ``Funnel.attribute_batch`` attributes every declaration of a pass at
once.  Each must give, item by item and bit for bit, what the item gets
alone: the plain-loop declaration of ``tests/live/oracle.py``
(``confirm_candidate``: ``np.median`` baselines, a backward scan for the
start, every split of the step fit) and a plain per-panel DiD written
here.  A live pass and an engine batch must also stay batched: one
declaration call and one attribution call, however many declare.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import scoring
from repro.core.funnel import Funnel
from repro.core.robust import MAD_TO_SIGMA
from repro.core.scoring import ChangeDeclarationPolicy, _declared_changes
from repro.engine import (EngineConfig, FleetScenarioSpec,
                          SyntheticFleetSource, execute_jobs,
                          reset_shared_cache, spec_for_method)
from repro.live import LiveAssessor, parity_live_config, replay_scenario
from repro.types import DetectedChange

from ..live.oracle import confirm_candidate

#: what a declaring row may look like
ROW_SHAPES = ("shift", "ramp", "slow-ramp", "noise", "constant-step",
              "ties")


def _row(rng, n, shape):
    x = 10.0 + rng.normal(0, 1, size=n)
    at = int(rng.integers(n // 4, 3 * n // 4))
    size = float(rng.choice([-6.0, -3.0, 4.0, 8.0]))
    if shape == "shift":
        x[at:] += size
    elif shape in ("ramp", "slow-ramp"):
        ramp = min(int(rng.integers(5, 30) if shape == "ramp"
                       else rng.integers(30, 60)), n - at)
        x[at:at + ramp] += np.linspace(0.0, size, ramp)
        x[at + ramp:] += size
    elif shape == "constant-step":          # zero-MAD baseline
        x[:] = 5.0
        x[at:] += size
    elif shape == "ties":
        x = np.round(x) + (np.arange(n) >= at) * size
    return x


def _padded(rows):
    lengths = np.array([row.size for row in rows])
    stack = np.full((len(rows), int(lengths.max())), np.nan)
    for i, row in enumerate(rows):
        stack[i, :row.size] = row
    return stack, lengths


@st.composite
def declaring_passes(draw):
    """Rows of mixed shapes and lengths, some cut at the declaration bin
    of their last declaring position (a live row as the pass sees it),
    each with a chain of confirmed positions, scores and a change index."""
    policy = ChangeDeclarationPolicy(persistence=draw(st.sampled_from([3, 7])))
    lookahead = draw(st.sampled_from([0, 16]))
    horizon = max(policy.persistence - 1, lookahead)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    rows, chains = [], []
    for _ in range(draw(st.integers(1, 5))):
        x = _row(rng, int(rng.integers(60, 160)),
                 draw(st.sampled_from(ROW_SHAPES)))
        positions = np.arange(x.size - horizon)
        directions = scoring._confirmed_directions(
            _padded([x]), [positions], policy)[0]
        chain, resume = [], 0
        for t in positions[directions != 0].tolist():
            if t >= resume and rng.random() < 0.7:
                chain.append(t)
                resume = t + horizon + 1
        if not chain:
            continue
        if draw(st.booleans()):               # live: cut at its bin
            x = x[:chain[-1] + horizon + 1]
        rows.append(x)
        chains.append((chain, rng.normal(0.5, 1.0, size=x.size),
                       int(rng.integers(0, x.size))))
    return policy, lookahead, rows, chains, draw(st.booleans())


class TestBatchedDeclaration:
    @given(declaring_passes())
    @settings(max_examples=80, deadline=None)
    def test_each_chain_declares_what_it_declares_alone(self, case):
        policy, lookahead, rows, chains, first_only = case
        if not rows:
            return
        padded = _padded(rows)
        candidates = [np.arange(row.size - max(policy.persistence - 1,
                                               lookahead)) for row in rows]
        gated = scoring._confirmed_directions(padded, candidates, policy)
        offsets = np.cumsum([0] + [c.size for c in candidates])
        got = _declared_changes(
            padded, [(i, chain, int(offsets[i]), scores, since)
                     for i, (chain, scores, since) in enumerate(chains)],
            gated, policy, lookahead, first_only)
        for x, (chain, scores, since), (kept, walked) in zip(rows, chains,
                                                             got):
            expected = []
            for t in chain:
                change = confirm_candidate(x, scores, t, policy, lookahead)
                last = change.index
                if change.start_index >= since - 1:
                    expected.append(change)
                    if first_only:
                        break
            assert kept == expected and walked == last
            assert [repr(c.score) for c in kept] == [
                repr(c.score) for c in expected]


def reference_attribution(config, treated, change, change_index, control,
                          history):
    """``(verdict, repr(normalised alpha), control)`` from the plain
    per-panel DiD: ``np.median`` for the pooled scale."""
    w = 2 * config.sst.omega - 1
    treated = np.atleast_2d(treated)
    if control is not None:
        kind, group = "peers", np.atleast_2d(control)
    elif history is not None:
        kind, group = "history", np.atleast_2d(history)
        treated = treated.mean(axis=0)[None, :]
    else:
        return "caused_by_change", "None", None
    pre = slice(max(0, change_index - w), change_index)
    end = min(treated.shape[1], change.index + 1)
    post = slice(max(change_index, end - w), end)
    diffs = np.concatenate([
        treated[:, post].mean(axis=1) - treated[:, pre].mean(axis=1),
        group[:, post].mean(axis=1) - group[:, pre].mean(axis=1)])
    indicator = np.r_[np.ones(treated.shape[0]), np.zeros(group.shape[0])]
    design = np.column_stack([np.ones(diffs.size), indicator])
    alpha = float(np.linalg.lstsq(design, diffs, rcond=None)[0][1])
    pooled = np.concatenate([treated[:, pre].ravel(), group[:, pre].ravel()])
    mad = float(np.median(np.abs(pooled - np.median(pooled))))
    normalised = alpha / (MAD_TO_SIGMA * mad + 1e-9)
    caused = abs(normalised) > config.did_threshold and (
        not (change.direction and normalised)
        or (change.direction > 0) == (normalised > 0))
    verdict = ("caused_by_change" if caused else
               "other_reasons" if kind == "peers" else "seasonality")
    return verdict, repr(normalised), kind


@st.composite
def attribution_items(draw):
    """Declared items of mixed panel shapes, few enough that a batch
    stacks several panels of one shape: peers of 1-8 units, 1-30 days of
    history or no control; post windows shorter than ``2 omega - 1``
    bins; noisy, constant and zero-MAD pre-periods."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    items = []
    for _ in range(draw(st.integers(1, 16))):
        bins = draw(st.sampled_from([50, 90]))
        change_index = draw(st.sampled_from([3, 30, 40]))
        index = min(change_index + draw(st.sampled_from([0, 5, 16, 40])),
                    bins - 1)
        treated = 10.0 + rng.normal(0, 1, size=(draw(st.sampled_from(
            [1, 3])), bins))
        kind = draw(st.sampled_from(["peers", "history", "none"]))
        units = draw(st.sampled_from([1, 8] if kind == "peers" else [1, 30]))
        group = 10.0 + rng.normal(0, 1, size=(units, bins))
        pre = draw(st.sampled_from(["noise", "constant", "zero-mad"]))
        if pre == "constant":
            treated[:, :change_index] = group[:, :change_index] = 7.0
        elif pre == "zero-mad":         # most pooled samples tie
            treated[:, :change_index] = 7.0
            group[:units // 2 + 1, :change_index] = 7.0
        treated[:, change_index:] += float(rng.choice([0.0, 0.3, -5.0, 8.0]))
        change = DetectedChange(index=index, start_index=change_index,
                                score=1.0,
                                direction=int(rng.choice([-1, 0, 1])))
        if draw(st.booleans()):
            treated = treated.mean(axis=0)
        items.append((treated, change, change_index,
                      group if kind == "peers" else None,
                      group if kind == "history" else None))
    return items


def _answer(assessment):
    return (assessment.verdict.value, repr(assessment.did_estimate),
            assessment.control, assessment.notes)


class TestBatchedAttribution:
    @given(attribution_items())
    @settings(max_examples=80, deadline=None)
    def test_a_batch_attributes_each_item_as_it_is_attributed_alone(
            self, items):
        funnel = Funnel()
        batch = [_answer(a) for a in funnel.attribute_batch(items)]
        alone = [_answer(funnel.attribute(treated, change, index,
                                          control=control, history=history))
                 for treated, change, index, control, history in items]
        assert batch == alone
        assert [answer[:3] for answer in batch] == [
            reference_attribution(funnel.config, *item) for item in items]

    def test_an_empty_batch_is_empty(self):
        assert Funnel().attribute_batch([]) == []


def _counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


class TestOneCallPerPass:
    """A burst of declarations costs one batched declaration and one
    batched attribution, in the live pool pass and in an engine batch;
    the one-item entry points are never reached."""

    def test_a_live_burst_pass_is_one_call_each(self, monkeypatch):
        import repro.live.detector as detector_module
        spec = FleetScenarioSpec(n_services=2, n_servers=24, n_changes=1,
                                 window_bins=80, change_offset=40,
                                 history_days=2, impact_fraction=1.0,
                                 seed=7)
        calls, passes = {}, []
        _counting(monkeypatch, detector_module, "_declared_changes", calls)
        _counting(monkeypatch, Funnel, "attribute_batch", calls)
        _counting(monkeypatch, Funnel, "attribute", calls)
        pool_score = LiveAssessor.pool_score

        def recorded(self, sessions, now):
            before = dict(calls)
            declared = pool_score(self, sessions, now)
            passes.append((declared, {name: calls.get(name, 0)
                                      - before.get(name, 0)
                                      for name in calls}))
            return declared

        monkeypatch.setattr(LiveAssessor, "pool_score", recorded)
        replay_scenario(spec, live_config=parity_live_config(spec))
        bursts = [made for declared, made in passes if declared]
        assert max(declared for declared, _ in passes) >= 10
        for made in bursts:
            assert made.get("_declared_changes") == 1
            assert made.get("attribute_batch") == 1
        assert "attribute" not in calls

    def test_an_engine_batch_is_one_attribution_call(self, monkeypatch):
        reset_shared_cache()
        jobs = list(SyntheticFleetSource(FleetScenarioSpec(
            n_services=2, n_servers=12, n_changes=2, history_days=1,
            impact_fraction=1.0, seed=5)).plan_jobs(
                (spec_for_method("funnel"),)))
        calls = {}
        _counting(monkeypatch, Funnel, "attribute_batch", calls)
        _counting(monkeypatch, Funnel, "attribute", calls)
        results = execute_jobs(jobs, config=EngineConfig(batch_size=64))
        declared = sum(result.outcome.detection_index is not None
                       for result in results)
        assert declared > 1
        assert calls == {"attribute_batch": -(-declared // 64)}
        reset_shared_cache()


"""The fault-plan DSL: seeded, stateless, scriptable by virtual time.

A :class:`FaultPlan` is a seed plus an ordered tuple of
:class:`FaultRule` entries.  Each rule names one fault kind, an optional
probability, an optional virtual-time ``window`` and an optional
``key_glob`` (matched with :mod:`fnmatch` against the KPI key's string
form ``"entity_type:entity:metric"``).  A rule with probability 1 and a
window is a *scripted* fault; a rule with probability < 1 is a
*probabilistic* one.

Determinism is the load-bearing property: every decision is a pure
function of ``(seed, kind, key, fragment_start)`` through a stable
:func:`hashlib.blake2b` hash — no RNG stream to carry, so a resumed
replay reproduces exactly the faults of an uninterrupted one, across
processes and platforms (``hash()`` randomisation does not apply).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Optional, Tuple

from ..exceptions import ParameterError

__all__ = ["DELAY", "DROP", "DUPLICATE", "REORDER", "HISTORY_ERROR",
           "SILENCE", "FaultRule", "FaultPlan", "preset_plan",
           "PRESET_NAMES"]

#: Agent->store (ingest) faults: the fragment reaches the store late.
DELAY = "delay"
SILENCE = "silence"
#: Store->subscriber (push) faults: the durable store is intact, the
#: push channel loses, repeats or swaps deliveries.
DROP = "drop"
DUPLICATE = "duplicate"
REORDER = "reorder"
#: History-database faults: transient fetch errors.
HISTORY_ERROR = "history_error"

_INGEST_KINDS = (DELAY, SILENCE)
_PUSH_KINDS = (DROP, DUPLICATE, REORDER)
_ALL_KINDS = _INGEST_KINDS + _PUSH_KINDS + (HISTORY_ERROR,)

#: "deliver normally" — the absence of a push fault.
DELIVER = "deliver"


@dataclass(frozen=True)
class FaultRule:
    """One fault class with its scope and intensity.

    Attributes:
        kind: one of :data:`DELAY`, :data:`SILENCE`, :data:`DROP`,
            :data:`DUPLICATE`, :data:`REORDER`, :data:`HISTORY_ERROR`.
        probability: chance the rule fires for a matching event; 1.0
            with a ``window`` makes the rule fully scripted.
        delay_bins: (:data:`DELAY`) bins the fragment is held beyond its
            normal arrival.
        error_attempts: (:data:`HISTORY_ERROR`) leading fetch attempts
            per (change, KPI) item that raise before the provider heals.
        window: optional half-open virtual-time window ``(t0, t1)``; the
            rule only fires for events arriving inside it.  A
            :data:`SILENCE` rule holds matching fragments until ``t1``.
        key_glob: optional :mod:`fnmatch` pattern against the key string
            ``"entity_type:entity:metric"`` (e.g. ``"server:web-*:*"``).
    """

    kind: str
    probability: float = 1.0
    delay_bins: int = 1
    error_attempts: int = 1
    window: Optional[Tuple[int, int]] = None
    key_glob: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in _ALL_KINDS:
            raise ParameterError("unknown fault kind %r (one of %s)"
                                 % (self.kind, ", ".join(_ALL_KINDS)))
        if not 0.0 <= self.probability <= 1.0:
            raise ParameterError("probability must be in [0, 1]")
        if self.delay_bins < 1:
            raise ParameterError("delay_bins must be >= 1")
        if self.error_attempts < 1:
            raise ParameterError("error_attempts must be >= 1")
        if self.kind == SILENCE and self.window is None:
            raise ParameterError("a silence rule needs a window")
        if self.window is not None and self.window[1] <= self.window[0]:
            raise ParameterError("window end must exceed its start")

    def matches(self, key_str: str, when: int) -> bool:
        if self.window is not None and not \
                (self.window[0] <= when < self.window[1]):
            return False
        if self.key_glob is not None and not \
                fnmatchcase(key_str, self.key_glob):
            return False
        return True

    def as_dict(self) -> dict:
        return {
            "kind": self.kind, "probability": self.probability,
            "delay_bins": self.delay_bins,
            "error_attempts": self.error_attempts,
            "window": list(self.window) if self.window else None,
            "key_glob": self.key_glob,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultRule":
        window = doc.get("window")
        return cls(
            kind=doc["kind"],
            probability=float(doc.get("probability", 1.0)),
            delay_bins=int(doc.get("delay_bins", 1)),
            error_attempts=int(doc.get("error_attempts", 1)),
            window=tuple(window) if window else None,
            key_glob=doc.get("key_glob"),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the rules; all decision methods are pure functions."""

    seed: int = 0
    rules: Tuple[FaultRule, ...] = ()
    name: str = ""

    # -- the deterministic coin --------------------------------------------

    def _roll(self, *parts) -> float:
        """A uniform [0, 1) draw, stable across processes and resumes."""
        token = "|".join([str(self.seed)] + [str(p) for p in parts])
        digest = hashlib.blake2b(token.encode("utf-8"),
                                 digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2.0 ** 64

    def _fires(self, rule: FaultRule, *parts) -> bool:
        if rule.probability >= 1.0:
            return True
        return self._roll(rule.kind, *parts) < rule.probability

    # -- ingest layer -------------------------------------------------------

    def ingest_release(self, key_str: str, fragment_start: int,
                       fragment_end: int) -> Optional[int]:
        """When a delayed/silenced fragment may reach the store.

        ``None`` means no ingest fault: deliver immediately.  The
        fragment's natural arrival instant is its ``end`` (the agent
        flushes once the bin closes); a delay of ``d`` bins releases it
        ``d`` collection intervals later, a silence window releases it
        at the window's end.  The worst matching rule wins.
        """
        release = None
        bin_seconds = fragment_end - fragment_start  # >= one bin
        for rule in self.rules:
            if rule.kind == DELAY and \
                    rule.matches(key_str, fragment_end) and \
                    self._fires(rule, key_str, fragment_start):
                candidate = fragment_end + rule.delay_bins * bin_seconds
                release = candidate if release is None \
                    else max(release, candidate)
            elif rule.kind == SILENCE and \
                    rule.matches(key_str, fragment_end):
                release = rule.window[1] if release is None \
                    else max(release, rule.window[1])
        return release

    # -- push layer ---------------------------------------------------------

    def push_action(self, key_str: str, fragment_start: int) -> str:
        """What happens to one store->subscriber push.

        The first rule (in plan order) that matches and fires wins;
        returns :data:`DROP`, :data:`DUPLICATE`, :data:`REORDER` or
        :data:`DELIVER`.
        """
        for rule in self.rules:
            if rule.kind not in _PUSH_KINDS:
                continue
            if rule.matches(key_str, fragment_start) and \
                    self._fires(rule, key_str, fragment_start):
                return rule.kind
        return DELIVER

    # -- history layer ------------------------------------------------------

    def history_failures(self, change_id: str, key_str: str) -> int:
        """Leading fetch attempts that raise for this (change, KPI)."""
        failures = 0
        for rule in self.rules:
            if rule.kind != HISTORY_ERROR:
                continue
            if rule.key_glob is not None and not \
                    fnmatchcase(key_str, rule.key_glob):
                continue
            if self._fires(rule, change_id, key_str):
                failures = max(failures, rule.error_attempts)
        return failures

    def has_history_faults(self) -> bool:
        return any(rule.kind == HISTORY_ERROR for rule in self.rules)

    # -- (de)serialisation --------------------------------------------------

    def describe(self) -> dict:
        """JSON document identifying this plan (checkpoint validation)."""
        return {"name": self.name, "seed": self.seed,
                "rules": [rule.as_dict() for rule in self.rules]}

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultPlan":
        return cls(seed=int(doc.get("seed", 0)),
                   rules=tuple(FaultRule.from_dict(r)
                               for r in doc.get("rules", ())),
                   name=doc.get("name", ""))


# -- named presets -------------------------------------------------------------

PRESET_NAMES = ("none", "drop-delay-dup", "reorder", "flaky-history",
                "agent-silence", "all")


def preset_plan(name: str, seed: int = 0,
                lead_time: int = 0, bin_seconds: int = 60,
                offset_bins: int = 0) -> FaultPlan:
    """A named fault plan, parameterised only by seed and timeline origin.

    ``lead_time`` anchors the scenario-relative silence window (the
    replay's first streamed instant, ``spec.lead_bins * MINUTE``);
    ``offset_bins`` pushes that window deeper into the stream — a
    mid-run outage instead of a cold-start one, which is what the
    health self-assessment smoke needs (the fault must land *after*
    its detectors' baseline ticks).
    """
    anchor = lead_time + offset_bins * bin_seconds
    if name == "none":
        return FaultPlan(seed=seed, rules=(), name=name)
    if name == "drop-delay-dup":
        rules = (
            FaultRule(DELAY, probability=0.12, delay_bins=2),
            FaultRule(DROP, probability=0.08),
            FaultRule(DUPLICATE, probability=0.08),
        )
    elif name == "reorder":
        rules = (FaultRule(REORDER, probability=0.15),)
    elif name == "flaky-history":
        rules = (FaultRule(HISTORY_ERROR, probability=0.6,
                           error_attempts=2),)
    elif name == "agent-silence":
        # Every server-level agent goes quiet for five collection
        # intervals (starting at the anchor), then floods the backlog.
        rules = (FaultRule(
            SILENCE,
            window=(anchor, anchor + 5 * bin_seconds),
            key_glob="server:*"),)
    elif name == "all":
        rules = (
            FaultRule(DELAY, probability=0.10, delay_bins=2),
            FaultRule(DROP, probability=0.06),
            FaultRule(DUPLICATE, probability=0.06),
            FaultRule(REORDER, probability=0.06),
            FaultRule(HISTORY_ERROR, probability=0.5, error_attempts=2),
            FaultRule(SILENCE,
                      window=(anchor, anchor + 5 * bin_seconds),
                      key_glob="server:*"),
        )
    else:
        raise ParameterError(
            "unknown fault plan %r (one of %s)"
            % (name, ", ".join(PRESET_NAMES)))
    return FaultPlan(seed=seed, rules=rules, name=name)

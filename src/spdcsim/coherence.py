"""Feasibility checks for path-length matching against coherence lengths.

The canonical layout has a pump split between two first-layer crystals
(arm lengths ``lp1``, ``lp2``), pump continuations to two second-layer
crystals (``lp3``, ``lp4``), and four down-converted beams of lengths
``l1`` to ``l4`` connecting the layers.  Indistinguishability requires
every relevant mismatch to be far below the corresponding coherence
length; "far below" is operationalized as ``<= strictness * length``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class CoherenceSpec:
    """Arm lengths and coherence lengths, all in meters."""

    pump_arms: tuple[float, float, float, float]  # lp1, lp2, lp3, lp4
    downconversion_arms: tuple[float, float, float, float]  # l1 .. l4
    coherence_length_spdc: float
    coherence_length_pump: float
    strictness: float = 0.1

    def __post_init__(self):
        for value in (*self.pump_arms, *self.downconversion_arms,
                      self.coherence_length_spdc, self.coherence_length_pump):
            if not 0.0 < value < math.inf:
                raise ValueError("lengths and coherence lengths must be positive and finite")
        if not 0.0 < self.strictness < 1.0:
            raise ValueError("strictness must lie in (0, 1)")


@dataclass(frozen=True)
class Constraint:
    """One mismatch bound: ``|difference| <= budget``.

    ``margin`` is ``1 - |difference| / budget``: 1 when perfectly
    matched, 0 at the edge, negative when violated.
    """

    name: str
    difference: float
    budget: float

    @property
    def margin(self) -> float:
        return 1.0 - abs(self.difference) / self.budget

    @property
    def satisfied(self) -> bool:
        return abs(self.difference) <= self.budget


@dataclass(frozen=True)
class CoherenceReport:
    constraints: tuple[Constraint, ...]

    @property
    def passed(self) -> bool:
        return all(c.satisfied for c in self.constraints)

    @property
    def violations(self) -> tuple[Constraint, ...]:
        return tuple(c for c in self.constraints if not c.satisfied)

    def worst(self) -> Constraint:
        return min(self.constraints, key=lambda c: c.margin)


def check_constraints(items: Iterable[tuple[str, float, float]]) -> CoherenceReport:
    """Generic form: evaluate ``(name, difference, budget)`` triples."""
    constraints = tuple(Constraint(name, diff, budget) for name, diff, budget in items)
    return CoherenceReport(constraints)


def check_coherence(spec: CoherenceSpec) -> CoherenceReport:
    """Evaluate every mismatch bound of the two-layer four-arm layout."""
    lp1, lp2, lp3, lp4 = spec.pump_arms
    arms = spec.downconversion_arms
    spdc_budget = spec.strictness * spec.coherence_length_spdc
    pump_budget = spec.strictness * spec.coherence_length_pump
    items: list[tuple[str, float, float]] = []
    for i in range(4):
        for j in range(i + 1, 4):
            items.append((f"l{i + 1}-l{j + 1}", arms[i] - arms[j], spdc_budget))
    items.append(("lp1-lp2", lp1 - lp2, pump_budget))
    items.append(("lp3-lp4", lp3 - lp4, pump_budget))
    for i in range(4):
        items.append((f"lp3-l{i + 1}", lp3 - arms[i], pump_budget))
        items.append((f"lp4-l{i + 1}", lp4 - arms[i], pump_budget))
    return check_constraints(items)


#: Keys accepted by :func:`parse_spec_file`, all in meters except epsilon.
_FILE_KEYS = ("lp1", "lp2", "lp3", "lp4", "l1", "l2", "l3", "l4",
              "lc_spdc", "lc_pump", "epsilon")


def parse_spec_file(text: str) -> CoherenceSpec:
    """Read a ``key=value`` description (one per line, ``#`` comments)."""
    values: dict[str, float] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value_text = line.partition("=")
        key = key.strip()
        if not sep or key not in _FILE_KEYS:
            raise ValueError(f"line {line_no}: expected one of {_FILE_KEYS}, got {line!r}")
        try:
            value = float(value_text.strip())
        except ValueError:
            raise ValueError(f"line {line_no}: bad number {value_text.strip()!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"line {line_no}: {key} = {value_text.strip()} is not finite")
        if key in values:
            raise ValueError(f"line {line_no}: {key} is given twice")
        values[key] = value
    missing = [k for k in _FILE_KEYS if k not in values and k != "epsilon"]
    if missing:
        raise ValueError(f"missing keys: {missing}")
    return CoherenceSpec(
        pump_arms=(values["lp1"], values["lp2"], values["lp3"], values["lp4"]),
        downconversion_arms=(values["l1"], values["l2"], values["l3"], values["l4"]),
        coherence_length_spdc=values["lc_spdc"],
        coherence_length_pump=values["lc_pump"],
        strictness=values.get("epsilon", 0.1),
    )

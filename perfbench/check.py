"""Comparison of benchmark outputs with the reference values in reference.json.

Standard library only, so `run.py` can run the negative self-check
without importing the simulator.
"""

from __future__ import annotations

import contextlib
import json
from fractions import Fraction
from pathlib import Path

#: Largest allowed difference of one amplitude, and relative difference of a weight.
AMPLITUDE_TOL = 1e-12

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


class Checker:
    """Counts checks attempted and keeps a message for each failed one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    @contextlib.contextmanager
    def guard(self, name: str):
        """A check that raises counts as one failed check."""
        try:
            yield
        except Exception as exc:  # noqa: BLE001 - any error of the program under test
            self.expect(name, f"raised {exc!r}")

    def expect(self, name: str, problem: str | None) -> None:
        """Record one check; ``problem`` is None when it passed."""
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{name}: {problem}")

    def equal(self, name: str, got, want) -> None:
        self.expect(name, None if got == want else f"got {got!r}, want {want!r}")

    def close(self, name: str, got: float, want: float, tol: float = AMPLITUDE_TOL) -> None:
        self.expect(name, None if abs(got - want) <= tol else f"got {got!r}, want {want!r}")

    def fraction(self, name: str, got, want: str) -> None:
        ok = isinstance(got, Fraction) and got == Fraction(want)
        self.expect(name, None if ok else f"got {got!r}, want {want}")

    def weight(self, name: str, got: float, want: float) -> None:
        ok = abs(got - want) <= AMPLITUDE_TOL * abs(want)
        self.expect(name, None if ok else f"got {got!r}, want {want!r}")

    def state(self, name: str, got_text: str, want_text: str) -> None:
        self.expect(name, state_mismatch(got_text, want_text))


def parse_terms(text: str) -> dict[str, complex]:
    """Serialized state (``re im : occupations`` per line) to a term map."""
    terms = {}
    for line in text.splitlines():
        head, _, occupation = line.partition(":")
        re_text, im_text = head.split()
        terms[occupation.strip()] = complex(float(re_text), float(im_text))
    return terms


def state_mismatch(got_text: str, want_text: str) -> str | None:
    got, want = parse_terms(got_text), parse_terms(want_text)
    if got.keys() != want.keys():
        return f"term patterns differ: {len(got)} terms, want {len(want)}"
    worst = max((abs(got[k] - want[k]) for k in want), default=0.0)
    return None if worst <= AMPLITUDE_TOL else f"amplitude off by {worst:.3g}"


def self_check(reference: dict) -> tuple[int, int]:
    """Plant failures the checker must report; returns (planted, caught).

    One corpus amplitude is moved by 1e-9 and one efficiency fraction
    is replaced by a wrong one.
    """
    checker = Checker()
    name, entry = next((n, e) for n, e in reference["corpus"].items() if e["state"])
    lines = entry["state"].splitlines()
    head, sep, tail = lines[0].partition(":")
    re_text, im_text = head.split()
    lines[0] = f"{float(re_text) + 1e-9!r} {im_text} {sep}{tail}"
    checker.state(f"planted.{name}", "\n".join(lines) + "\n", entry["state"])
    key, ladder = next(iter(reference["ladder"].items()))
    checker.fraction(f"planted.{key}", Fraction(ladder["efficiency"]) + Fraction(1, 10**9), ladder["efficiency"])
    return checker.attempted, len(checker.failures)

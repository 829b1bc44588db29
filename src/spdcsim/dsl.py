"""Plain-text experiment description language: parser and serializer.

One statement per line, ``#`` starts a comment.  Statements:

    crystal <pA>:<m> <pB>:<m> [g=<float>] [modes=<m1,m2,...>]
    shift <path> <int>
    phase <path> <float>
    misalign <path> T=<float>
    relabel <p1> <p2>
    detectors <p> <p> ...
    order <int>
    pairs <int>

Mode tokens are integers or the polarization aliases H (0) and V (1).
With ``modes=`` the list sets the modes, so both path tokens must carry
mode 0 (``a:0`` or ``a:H``).  ``detectors``, ``order`` and ``pairs``
lines, and a crystal's ``g=`` and ``modes=``, may each appear once.
Parsing collects every problem in one pass and reports each with its
line, column, and length.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .elements import (
    Crystal,
    Element,
    Misalignment,
    ModeShifter,
    MultimodeCrystal,
    PhaseShifter,
    Relabel,
)
from .experiment import Experiment
from .fock import ModeLabel

_MODE_ALIASES = {"H": 0, "V": 1}


@dataclass(frozen=True)
class SourceSpan:
    line: int  # 1-based
    column: int  # 1-based
    length: int


@dataclass(frozen=True)
class ParseIssue:
    span: SourceSpan
    message: str
    expected: str = ""

    def __str__(self) -> str:
        suffix = f" (expected {self.expected})" if self.expected else ""
        return f"{self.span.line}:{self.span.column}: {self.message}{suffix}"


class ExperimentParseError(ValueError):
    """Raised with the full list of issues found in one parsing pass."""

    def __init__(self, issues: list[ParseIssue]):
        self.issues = issues
        super().__init__("; ".join(str(i) for i in issues))


@dataclass(frozen=True)
class _Token:
    text: str
    span: SourceSpan


def _tokenize(line: str, line_no: int) -> list[_Token]:
    stripped = line.split("#", 1)[0]
    return [
        _Token(m.group(0), SourceSpan(line_no, m.start() + 1, len(m.group(0))))
        for m in re.finditer(r"\S+", stripped)
    ]


class _LineParser:
    """Statement-level parsing with issue collection."""

    def __init__(self):
        self.issues: list[ParseIssue] = []
        self.elements: list[Element] = []
        self.detectors: tuple[str, ...] | None = None
        self.seen: set[str] = set()  # the keywords of the once-only statements given
        self.order: int | None = None
        self.pairs: int | None = None

    def fail(self, token: _Token, message: str, expected: str = "") -> None:
        self.issues.append(ParseIssue(token.span, message, expected))

    def parse_line(self, tokens: list[_Token]) -> None:
        keyword = tokens[0]
        handler = {
            "crystal": self._crystal,
            "shift": self._shift,
            "phase": self._phase,
            "misalign": self._misalign,
            "relabel": self._relabel,
            "detectors": self._detectors,
            "order": self._order,
            "pairs": self._pairs,
        }.get(keyword.text)
        if handler is None:
            self.fail(keyword, f"unknown keyword {keyword.text!r}",
                      "crystal, shift, phase, misalign, relabel, detectors, order, pairs")
            return
        if keyword.text in ("detectors", "order", "pairs"):
            if keyword.text in self.seen:
                self.fail(keyword, f"duplicate {keyword.text} line")
                return
            self.seen.add(keyword.text)
        handler(tokens)

    # -- helpers ---------------------------------------------------------

    def _want(self, tokens: list[_Token], count: int, usage: str) -> bool:
        if len(tokens) - 1 < count:
            self.fail(tokens[0], f"statement needs {count} argument(s)", usage)
            return False
        return True

    def _int(self, token: _Token) -> int | None:
        try:
            return int(token.text)
        except ValueError:
            self.fail(token, f"malformed integer {token.text!r}", "an integer")
            return None

    def _float(self, token: _Token, text: str | None = None) -> float | None:
        raw = token.text if text is None else text
        try:
            return float(raw)
        except ValueError:
            self.fail(token, f"malformed number {raw!r}", "a number")
            return None

    def _mode(self, token: _Token, text: str) -> int | None:
        if text in _MODE_ALIASES:
            return _MODE_ALIASES[text]
        try:
            return int(text)
        except ValueError:
            self.fail(token, f"malformed mode {text!r}", "an integer, H, or V")
            return None

    def _labeled(self, token: _Token) -> ModeLabel | None:
        path, sep, mode_text = token.text.partition(":")
        if not sep or not path:
            self.fail(token, f"expected path:mode, got {token.text!r}", "path:mode")
            return None
        mode = self._mode(token, mode_text)
        if mode is None:
            return None
        return ModeLabel(path, mode)

    # -- statements ---------------------------------------------------------

    def _crystal(self, tokens: list[_Token]) -> None:
        if not self._want(tokens, 2, "crystal pA:m pB:m [g=x] [modes=i,j,...]"):
            return
        label_a = self._labeled(tokens[1])
        label_b = self._labeled(tokens[2])
        g = 0.1
        modes: tuple[int, ...] | None = None
        ok = label_a is not None and label_b is not None
        given: set[str] = set()
        for token in tokens[3:]:
            key, sep, value = token.text.partition("=")
            if sep:
                if key in given:
                    self.fail(token, f"duplicate crystal option {key}=")
                    ok = False
                    continue
                given.add(key)
            if key == "g" and sep:
                parsed = self._float(token, value)
                if parsed is None:
                    ok = False
                else:
                    g = parsed
            elif key == "modes" and sep:
                items = []
                for piece in value.split(","):
                    mode = self._mode(token, piece)
                    if mode is None:
                        ok = False
                        break
                    items.append(mode)
                else:
                    modes = tuple(items)
            else:
                self.fail(token, f"unknown crystal option {token.text!r}", "g=<float> or modes=<list>")
                ok = False
        if modes is not None:
            for token, label in ((tokens[1], label_a), (tokens[2], label_b)):
                if label is not None and label.mode != 0:
                    self.fail(token, f"mode of {token.text!r} conflicts with modes=", "path:0")
                    ok = False
        if not ok:
            return
        try:
            if modes is None:
                self.elements.append(Crystal(label_a, label_b, g=g))
            else:
                self.elements.append(
                    MultimodeCrystal(label_a.path, label_b.path, modes=modes, g=g)
                )
        except ValueError as exc:
            self.fail(tokens[0], str(exc))

    def _shift(self, tokens: list[_Token]) -> None:
        if not self._want(tokens, 2, "shift <path> <int>"):
            return
        delta = self._int(tokens[2])
        if delta is not None:
            self.elements.append(ModeShifter(tokens[1].text, delta))

    def _phase(self, tokens: list[_Token]) -> None:
        if not self._want(tokens, 2, "phase <path> <float>"):
            return
        phi = self._float(tokens[2])
        if phi is None:
            return
        try:
            self.elements.append(PhaseShifter(tokens[1].text, phi))
        except ValueError as exc:
            self.fail(tokens[2], str(exc))

    def _misalign(self, tokens: list[_Token]) -> None:
        if not self._want(tokens, 2, "misalign <path> T=<float>"):
            return
        key, sep, value = tokens[2].text.partition("=")
        if key != "T" or not sep:
            self.fail(tokens[2], f"expected T=<float>, got {tokens[2].text!r}", "T=<float>")
            return
        t = self._float(tokens[2], value)
        if t is None:
            return
        try:
            self.elements.append(Misalignment(tokens[1].text, t))
        except ValueError as exc:
            self.fail(tokens[2], str(exc))

    def _relabel(self, tokens: list[_Token]) -> None:
        if not self._want(tokens, 2, "relabel <from> <to>"):
            return
        self.elements.append(Relabel(tokens[1].text, tokens[2].text))

    def _detectors(self, tokens: list[_Token]) -> None:
        if len(tokens) < 2:
            self.fail(tokens[0], "detectors line lists no paths", "detectors <p> <p> ...")
            return
        paths = tuple(t.text for t in tokens[1:])
        for i, token in enumerate(tokens[1:]):
            if token.text in paths[:i]:
                self.fail(token, f"duplicate detector path {token.text!r}")
                return
        self.detectors = paths

    def _order(self, tokens: list[_Token]) -> None:
        if not self._want(tokens, 1, "order <int>"):
            return
        value = self._int(tokens[1])
        if value is None:
            return
        if value < 1:
            self.fail(tokens[1], "expansion order must be >= 1")
            return
        self.order = value

    def _pairs(self, tokens: list[_Token]) -> None:
        if not self._want(tokens, 1, "pairs <int>"):
            return
        value = self._int(tokens[1])
        if value is None:
            return
        if value < 0:
            self.fail(tokens[1], "pair budget must be >= 0")
            return
        self.pairs = value


def parse(text: str) -> Experiment:
    """Parse a full description; raises with every issue found."""
    parser = _LineParser()
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(line, line_no)
        if tokens:
            parser.parse_line(tokens)
    if "detectors" not in parser.seen:
        parser.issues.append(
            ParseIssue(SourceSpan(1, 1, 1), "missing detectors statement", "detectors <p> ...")
        )
    if parser.issues:
        raise ExperimentParseError(parser.issues)
    return Experiment(
        elements=tuple(parser.elements),
        detectors=parser.detectors,
        max_pairs=parser.pairs,
        expansion_order=parser.order if parser.order is not None else 2,
    )


def path_name(path: str) -> str:
    """``path``, if the language can write it as a path name.

    Raises ``ValueError`` naming it when it is empty or holds whitespace,
    ``:`` or ``#``: the parser splits on those, so the text would parse
    to other paths or not at all.
    """
    if not path:
        raise ValueError(f"path name {path!r} is empty")
    if any(c.isspace() or c in ":#" for c in path):
        raise ValueError(f"path name {path!r} holds whitespace, ':' or '#'")
    return path


def serialize(exp: Experiment) -> str:
    """Canonical text for an experiment; parsing it back is the identity.

    Raises ``ValueError`` naming the field when the experiment sets one
    the language cannot express (an explicit misalignment ``loss`` path,
    ``creation_only``, a path :func:`path_name` rejects), rather than
    writing text that parses to a different experiment.
    """
    if exp.creation_only:
        raise ValueError("cannot serialize creation_only=True: the language has no statement for it")
    lines = []
    if exp.expansion_order != 2:
        lines.append(f"order {exp.expansion_order}")
    if exp.max_pairs is not None:
        lines.append(f"pairs {exp.max_pairs}")
    lines.append("detectors " + " ".join(map(path_name, exp.detectors)))
    for element in exp.elements:
        if isinstance(element, Misalignment) and element.loss is not None:
            raise ValueError(f"cannot serialize the loss field of {element!r}")
        if isinstance(element, Crystal):
            line = (
                f"crystal {path_name(element.out_a.path)}:{element.out_a.mode}"
                f" {path_name(element.out_b.path)}:{element.out_b.mode}"
            )
            if element.g != 0.1:
                line += f" g={element.g!r}"
            lines.append(line)
        elif isinstance(element, MultimodeCrystal):
            line = (
                f"crystal {path_name(element.path_a)}:0 {path_name(element.path_b)}:0"
                f" g={element.g!r}"
                f" modes={','.join(str(m) for m in element.modes)}"
            )
            lines.append(line)
        elif isinstance(element, ModeShifter):
            lines.append(f"shift {path_name(element.path)} {element.delta}")
        elif isinstance(element, PhaseShifter):
            lines.append(f"phase {path_name(element.path)} {element.phi!r}")
        elif isinstance(element, Misalignment):
            lines.append(f"misalign {path_name(element.path)} T={element.transmissivity!r}")
        elif isinstance(element, Relabel):
            lines.append(f"relabel {path_name(element.source)} {path_name(element.target)}")
        else:
            raise TypeError(f"cannot serialize {element!r}")
    return "\n".join(lines) + "\n"

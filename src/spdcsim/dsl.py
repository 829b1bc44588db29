"""Plain-text experiment description language: parser and serializer.

One statement per line, ``#`` starts a comment.  Statements:

    crystal <pA>:<m> <pB>:<m> [g=<float>] [modes=<m1,m2,...>]
    shift <path> <int>
    phase <path> <float>
    misalign <path> T=<float>
    relabel <path> <path>
    detectors <path> <path> ...
    order <int>
    pairs <int>

``_STATEMENTS`` defines every statement but ``crystal`` and
``detectors``, for ``parse`` and ``serialize`` alike.  Each statement
takes exactly its arguments, and every path token (a crystal's and each
detector included) is a name :func:`path_name` accepts.
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
from functools import partial

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


def _number(kind: type, text: str):
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"malformed number {text!r}") from None


def _mode(text: str) -> int:
    return _MODE_ALIASES[text] if text in _MODE_ALIASES else _number(int, text)


def _transmissivity(text: str) -> float:
    key, sep, value = text.partition("=")
    if key != "T" or not sep:
        raise ValueError(f"expected T=<float>, got {text!r}")
    return _number(float, value)


# form -> (usage, reader: text -> value or ValueError, writer: value -> text)
_FORMS = {
    "path": ("<path>", path_name, path_name),
    "int": ("<int>", partial(_number, int), str),
    "float": ("<float>", partial(_number, float), repr),
    "T=float": ("T=<float>", _transmissivity, "T={!r}".format),
    "mode": ("an integer, H, or V", _mode, str),
}

# keyword -> (element class, or None for the Experiment field a setting
# sets, and its arguments in order as (field, form) pairs)
_STATEMENTS = {
    "shift": (ModeShifter, (("path", "path"), ("delta", "int"))),
    "phase": (PhaseShifter, (("path", "path"), ("phi", "float"))),
    "misalign": (Misalignment, (("path", "path"), ("transmissivity", "T=float"))),
    "relabel": (Relabel, (("source", "path"), ("target", "path"))),
    "order": (None, (("expansion_order", "int"),)),
    "pairs": (None, (("max_pairs", "int"),)),
}
_KEYWORD_OF = {kind: keyword for keyword, (kind, _) in _STATEMENTS.items() if kind}


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
        # Experiment field -> value; a once-only line is in it from its keyword on.
        self.settings: dict[str, object] = {}

    def fail(self, token: _Token, message: str, expected: str = "") -> None:
        self.issues.append(ParseIssue(token.span, message, expected))

    def parse_line(self, tokens: list[_Token]) -> None:
        keyword = tokens[0]
        if keyword.text == "crystal":
            self._crystal(tokens)
        elif keyword.text == "detectors":
            self._detectors(tokens)
        elif keyword.text in _STATEMENTS:
            self._statement(tokens)
        else:
            self.fail(keyword, f"unknown keyword {keyword.text!r}",
                      ", ".join(["crystal", "detectors", *_STATEMENTS]))

    def _read(self, token: _Token, form: str, text: str | None = None):
        """The value of ``text`` (the token's own by default), or ``None``
        after recording an issue at ``token``."""
        usage, reader, _ = _FORMS[form]
        try:
            return reader(token.text if text is None else text)
        except ValueError as exc:
            self.fail(token, str(exc), usage)
            return None

    def _first(self, keyword: _Token, field: str) -> bool:
        if field in self.settings:
            self.fail(keyword, f"duplicate {keyword.text} line")
            return False
        self.settings[field] = None  # given, even if the line is rejected
        return True

    def _statement(self, tokens: list[_Token]) -> None:
        keyword, *args = tokens
        kind, params = _STATEMENTS[keyword.text]
        if kind is None and not self._first(keyword, params[0][0]):
            return
        if len(args) != len(params):
            usage = " ".join([keyword.text, *(_FORMS[form][0] for _, form in params)])
            self.fail(keyword, f"statement takes {len(params)} argument(s), got {len(args)}", usage)
            return
        values = {field: self._read(token, form) for token, (field, form) in zip(args, params)}
        if None in values.values():
            return
        try:
            built = (kind or Experiment)(**values)  # a setting is checked as Experiment checks it
        except ValueError as exc:
            self.fail(args[-1], str(exc))
            return
        if kind is None:
            self.settings.update(values)
        else:
            self.elements.append(built)

    def _labeled(self, token: _Token) -> ModeLabel | None:
        path, sep, mode_text = token.text.partition(":")
        if not sep:
            self.fail(token, f"expected path:mode, got {token.text!r}", "path:mode")
            return None
        path = self._read(token, "path", path)
        mode = None if path is None else self._read(token, "mode", mode_text)
        return None if mode is None else ModeLabel(path, mode)

    def _crystal(self, tokens: list[_Token]) -> None:
        if len(tokens) < 3:
            self.fail(tokens[0], "statement needs 2 argument(s)", "crystal pA:m pB:m [g=x] [modes=i,j,...]")
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
                g = self._read(token, "float", value)
                ok = ok and g is not None
            elif key == "modes" and sep:
                modes = tuple(self._read(token, "mode", piece) for piece in value.split(","))
                ok = ok and None not in modes
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
            self.elements.append(
                Crystal(label_a, label_b, g=g) if modes is None
                else MultimodeCrystal(label_a.path, label_b.path, modes=modes, g=g)
            )
        except ValueError as exc:
            self.fail(tokens[0], str(exc))

    def _detectors(self, tokens: list[_Token]) -> None:
        keyword, *args = tokens
        if not self._first(keyword, "detectors"):
            return
        if not args:
            self.fail(keyword, "detectors line lists no paths", "detectors <path> <path> ...")
            return
        paths: list[str] = []
        for token in args:
            path = self._read(token, "path")
            if path in paths:
                self.fail(token, f"duplicate detector path {path!r}")
            elif path is not None:
                paths.append(path)
        if len(paths) == len(args):
            self.settings["detectors"] = tuple(paths)


def parse(text: str) -> Experiment:
    """Parse a full description; raises with every issue found."""
    parser = _LineParser()
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(line, line_no)
        if tokens:
            parser.parse_line(tokens)
    if "detectors" not in parser.settings:
        parser.issues.append(
            ParseIssue(SourceSpan(1, 1, 1), "missing detectors statement", "detectors <path> ...")
        )
    if parser.issues:
        raise ExperimentParseError(parser.issues)
    return Experiment(elements=tuple(parser.elements), **parser.settings)


def _line(keyword: str, source) -> str:
    """``keyword``'s statement for the fields of ``source``, by the table."""
    _, params = _STATEMENTS[keyword]
    return " ".join([keyword, *(_FORMS[form][2](getattr(source, field)) for field, form in params)])


def serialize(exp: Experiment) -> str:
    """Canonical text for an experiment; parsing it back is the identity.

    Raises ``ValueError`` naming the field when the experiment sets one
    the language cannot express (an explicit misalignment ``loss`` path,
    ``creation_only``, a path :func:`path_name` rejects), rather than
    writing text that parses to a different experiment.
    """
    if exp.creation_only:
        raise ValueError("cannot serialize creation_only=True: the language has no statement for it")
    # A setting at its default (the dataclass's class attribute) is left out.
    lines = [
        _line(keyword, exp)
        for keyword, (kind, params) in _STATEMENTS.items()
        if kind is None and getattr(exp, params[0][0]) != getattr(Experiment, params[0][0])
    ]
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
        elif type(element) in _KEYWORD_OF:
            lines.append(_line(_KEYWORD_OF[type(element)], element))
        else:
            raise TypeError(f"cannot serialize {element!r}")
    return "\n".join(lines) + "\n"

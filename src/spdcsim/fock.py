"""Sparse algebra over multi-mode bosonic occupation states.

A state is a superposition of occupation patterns over ``(path, mode)``
labels, stored as a mapping from a canonically ordered occupation tuple
to a complex amplitude.  Amplitudes use the normalized number-state
convention, so raising and lowering carry the usual square-root factors:
raising an occupation ``n`` multiplies the amplitude by ``sqrt(n + 1)``,
lowering by ``sqrt(n)``.

Evolution runs on packed keys instead: :class:`KeyLayout` packs an
occupation into one ``int``, and the pair-generator kernel
:func:`apply_pair_generator` works on plain coefficient dicts over those
keys, in the convention above or in the monomial convention, where a
term stands for ``prod a_dag^n |vac>`` and raising leaves the
coefficient unchanged.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple

#: Amplitudes at or below this magnitude are dropped from sparse states.
PRUNE_EPSILON = 1e-14

#: Paths reserved for undetected beams split off by misalignment elements.
LOSS_PREFIX = "loss#"


class ModeLabel(NamedTuple):
    """One bosonic mode: a beam path plus an integer internal mode.

    Polarization is encoded as mode 0 (horizontal) and 1 (vertical);
    orbital angular momentum uses the integer value directly, negative
    values included.
    """

    path: str
    mode: int

    def is_loss(self) -> bool:
        return self.path.startswith(LOSS_PREFIX)

    def text(self) -> str:
        return f"{self.path}:{self.mode}"


def loss_path(index: int) -> str:
    """Name of the ``index``-th loss path."""
    return f"{LOSS_PREFIX}{index}"


#: Canonical occupation pattern: sorted ``((label, count), ...)`` with
#: every count >= 1.  The empty tuple is the vacuum pattern.
Occupation = tuple[tuple[ModeLabel, int], ...]


_count = itemgetter(1)


def make_occupation(counts: Mapping[ModeLabel, int]) -> Occupation:
    """Build a canonical occupation tuple, dropping zero entries."""
    items = [(label, n) for label, n in counts.items() if n != 0]
    for label, n in items:
        if n < 0:
            raise ValueError(f"negative occupation {n} at {label.text()}")
    return tuple(sorted(items))


def raise_occupation(occ: Occupation, label: ModeLabel, k: int = 1) -> tuple[Occupation, int]:
    """Splice ``k`` more photons at ``label`` into ``occ``; returns the new
    pattern and the count at ``label`` after raising."""
    i = bisect_left(occ, (label,))
    if i < len(occ) and occ[i][0] == label:
        n = occ[i][1] + k
        return occ[:i] + ((label, n),) + occ[i + 1 :], n
    return occ[:i] + ((label, k),) + occ[i:], k


def lower_occupation(occ: Occupation, label: ModeLabel) -> tuple[Occupation, int] | None:
    """Splice one photon at ``label`` out of ``occ``; returns the new
    pattern and the count at ``label`` before lowering, or ``None`` when
    ``label`` is empty."""
    i = bisect_left(occ, (label,))
    if i == len(occ) or occ[i][0] != label:
        return None
    n = occ[i][1]
    if n == 1:
        return occ[:i] + occ[i + 1 :], 1
    return occ[:i] + ((label, n - 1),) + occ[i + 1 :], n


class KeyLayout:
    """Packing of occupations into one ``int``: each ``(path, mode)`` label
    owns a ``width``-bit field.

    Fields run in canonical label order, and each path owns one block of
    fields, one per mode from its lowest to its highest, so a mode shift
    moves the block's bits.  ``width`` is the smallest with
    ``2^width - 1 > bound``: no term of at most ``bound`` photons overflows
    a field, and since ``2^width`` is 1 modulo ``mask = 2^width - 1`` the
    digit sum ``key % mask`` is the term's exact photon count.
    """

    __slots__ = ("width", "mask", "bound", "fields", "blocks", "labels")

    def __init__(self, modes: Mapping[str, Iterable[int]], bound: int):
        width = (bound + 1).bit_length()
        self.width = width
        self.mask = (1 << width) - 1
        self.bound = bound
        #: label -> bit offset of its field
        self.fields: dict[ModeLabel, int] = {}
        #: path -> (bit offset of the block, lowest mode, field count)
        self.blocks: dict[str, tuple[int, int, int]] = {}
        #: the label of each field, in field order
        self.labels: list[ModeLabel] = []
        for path in sorted(modes):
            reach = modes[path]
            low, high = min(reach), max(reach)
            self.blocks[path] = (len(self.labels) * width, low, high - low + 1)
            for mode in range(low, high + 1):
                label = ModeLabel(path, mode)
                self.fields[label] = len(self.labels) * width
                self.labels.append(label)

    def encode(self, occ: Occupation) -> int:
        """The key of ``occ``; ``ValueError`` for a label without a field
        or a term above the bound, which could overflow."""
        fields = self.fields
        key = total = 0
        for label, n in occ:
            offset = fields.get(label)
            if offset is None:
                raise ValueError(f"label {label.text()} has no field in this key layout")
            key += n << offset
            total += n
        if total > self.bound:
            raise ValueError(f"{total} photons exceed the key layout's bound of {self.bound}")
        return key

    def decode(self, key: int) -> Occupation:
        """The canonical occupation tuple of ``key``."""
        width, mask, labels = self.width, self.mask, self.labels
        out = []
        i = 0
        while key:
            n = key & mask
            if n:
                out.append((labels[i], n))
            key >>= width
            i += 1
        return tuple(out)


def apply_pair_generator(
    terms: Mapping[int, object],
    slots: list[tuple[int, int]],
    mask: int,
    *,
    creation_only: bool = False,
    bosonic: bool = True,
) -> dict[int, object]:
    """Apply ``D = sum_pairs (a^dag_A a^dag_B - a_A a_B)`` once to a
    coefficient dict on packed keys, in one pass and without pruning.

    ``slots`` holds each pair's two field offsets and ``mask`` one
    field's bits (:class:`KeyLayout`).  Bosonic convention: raising to
    ``n`` and lowering from ``n`` both multiply by ``sqrt(n)``.  Monomial
    convention (``bosonic=False``): raising multiplies by 1 and lowering
    from ``n`` by ``n``, so integer and ``Fraction`` coefficients stay
    exact.
    """
    # ``same`` is 1 when A is B: the second raise then sees the first.
    steps = [(a, b, int(a == b), (1 << a) + (1 << b)) for a, b in slots]
    out: dict[int, object] = {}
    get = out.get
    sqrt = math.sqrt
    for key, amp in terms.items():
        for a, b, same, step in steps:
            na = key >> a & mask
            nb = key >> b & mask
            raised = key + step
            value = amp * sqrt((na + 1) * (nb + 1 + same)) if bosonic else amp
            out[raised] = get(raised, 0) + value
            if creation_only:
                continue
            nb -= same
            if na and nb > 0:
                lowered = key - step
                value = amp * sqrt(na * nb) if bosonic else amp * (na * nb)
                out[lowered] = get(lowered, 0) - value
    return out


def occupation_photons(occ: Occupation, *, include_loss: bool = True) -> int:
    """Total photon count of a pattern, optionally ignoring loss paths."""
    if include_loss:
        return sum(map(_count, occ))
    return sum(n for label, n in occ if not label.is_loss())


class StateVector:
    """Sparse superposition of occupation patterns with complex amplitudes.

    Value semantics: every operation returns a new state, inputs are
    never mutated.  Terms with amplitude magnitude at or below
    ``PRUNE_EPSILON`` are dropped on construction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Occupation, complex] | None = None):
        cleaned: dict[Occupation, complex] = {}
        if terms:
            for occ, amp in terms.items():
                amp = complex(amp)
                if abs(amp) > PRUNE_EPSILON:
                    cleaned[occ] = amp
        self.terms = cleaned

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "StateVector":
        return cls()

    @classmethod
    def from_occupations(cls, counts: Mapping[ModeLabel, int], amplitude: complex = 1.0) -> "StateVector":
        """Single-term state for the given occupations."""
        return cls({make_occupation(counts): complex(amplitude)})

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def amplitude(self, counts: Mapping[ModeLabel, int]) -> complex:
        """Amplitude of one occupation pattern (0 if absent)."""
        return self.terms.get(make_occupation(counts), 0j)

    def paths(self) -> set[str]:
        return {label.path for occ in self.terms for label, _ in occ}

    def __iter__(self) -> Iterator[tuple[Occupation, complex]]:
        return iter(sorted(self.terms.items()))

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "StateVector(0)"
        parts = []
        for occ, amp in sorted(self.terms.items()):
            occ_text = " ".join(f"{n}*{label.text()}" for label, n in occ) or "vac"
            parts.append(f"({amp:.6g})|{occ_text}>")
        return "StateVector(" + " + ".join(parts) + ")"

    # -- linear structure --------------------------------------------------

    def __add__(self, other: "StateVector") -> "StateVector":
        if not isinstance(other, StateVector):
            return NotImplemented
        merged = dict(self.terms)
        for occ, amp in other.terms.items():
            merged[occ] = merged.get(occ, 0j) + amp
        return StateVector(merged)

    def __sub__(self, other: "StateVector") -> "StateVector":
        return self + (other * -1.0)

    def __mul__(self, scalar: complex) -> "StateVector":
        if isinstance(scalar, StateVector):
            return NotImplemented
        c = complex(scalar)
        return StateVector({occ: amp * c for occ, amp in self.terms.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "StateVector":
        return self * -1.0

    # -- ladder operators -------------------------------------------------

    def create(self, label: ModeLabel) -> "StateVector":
        """Raise the occupation at ``label`` on every term."""
        out: dict[Occupation, complex] = {}
        for occ, amp in self.terms.items():
            key, n = raise_occupation(occ, label)
            out[key] = out.get(key, 0j) + amp * math.sqrt(n)
        return StateVector(out)

    def annihilate(self, label: ModeLabel) -> "StateVector":
        """Lower the occupation at ``label``; terms without it vanish."""
        out: dict[Occupation, complex] = {}
        for occ, amp in self.terms.items():
            lowered = lower_occupation(occ, label)
            if lowered is not None:
                key, n = lowered
                out[key] = out.get(key, 0j) + amp * math.sqrt(n)
        return StateVector(out)

    # -- metric ------------------------------------------------------------

    def inner(self, other: "StateVector") -> complex:
        """Hermitian inner product ``<self|other>`` in the number basis."""
        if len(self.terms) > len(other.terms):
            return other.inner(self).conjugate()
        total = 0j
        for occ, amp in self.terms.items():
            other_amp = other.terms.get(occ)
            if other_amp is not None:
                total += amp.conjugate() * other_amp
        return total

    def norm(self) -> float:
        return math.sqrt(sum(abs(amp) ** 2 for amp in self.terms.values()))

    def normalized(self) -> "StateVector":
        """Unit-norm copy; the zero state is returned unchanged."""
        n = self.norm()
        if n == 0.0:
            return StateVector.zero()
        return self * (1.0 / n)

    # -- sector selection ---------------------------------------------------

    def truncate_pairs(self, max_pairs: int) -> "StateVector":
        """Drop terms holding more than ``2 * max_pairs`` photons."""
        if max_pairs < 0:
            raise ValueError("max_pairs must be >= 0")
        limit = 2 * max_pairs
        kept = {
            occ: amp
            for occ, amp in self.terms.items()
            if occupation_photons(occ) <= limit
        }
        return StateVector(kept)

    def photon_sector(self, n: int, *, include_loss: bool = True) -> "StateVector":
        """Sub-state whose terms hold exactly ``n`` photons."""
        kept = {
            occ: amp
            for occ, amp in self.terms.items()
            if occupation_photons(occ, include_loss=include_loss) == n
        }
        return StateVector(kept)

    # -- serialization -------------------------------------------------------

    def serialize(self) -> str:
        """Canonical text form, one term per line.

        Format: ``re im : n1*path:mode n2*path:mode ...`` with terms in
        canonical order.  ``repr`` floats are used so parsing the text
        reproduces the state bit for bit.
        """
        lines = []
        for occ, amp in sorted(self.terms.items()):
            occ_text = " ".join(f"{n}*{label.text()}" for label, n in occ)
            lines.append(f"{amp.real!r} {amp.imag!r} : {occ_text}".rstrip())
        return "\n".join(lines) + ("\n" if lines else "")


def vacuum() -> StateVector:
    """The vacuum state: a single empty term with amplitude 1."""
    return StateVector({(): 1.0 + 0j})


def parse_state(text: str) -> StateVector:
    """Inverse of :meth:`StateVector.serialize`."""
    terms: dict[Occupation, complex] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, tail = line.partition(":")
        fields = head.split()
        if len(fields) != 2:
            raise ValueError(f"line {line_no}: expected 're im :' prefix")
        try:
            amp = complex(float(fields[0]), float(fields[1]))
        except ValueError as exc:
            raise ValueError(f"line {line_no}: bad amplitude: {exc}") from None
        counts: dict[ModeLabel, int] = {}
        for token in tail.split():
            mult, sep, label_text = token.partition("*")
            path, sep2, mode_text = label_text.rpartition(":")
            if not sep or not sep2 or not path:
                raise ValueError(f"line {line_no}: bad occupation token {token!r}")
            try:
                count = int(mult)
                mode = int(mode_text)
            except ValueError:
                raise ValueError(f"line {line_no}: bad occupation token {token!r}") from None
            label = ModeLabel(path, mode)
            counts[label] = counts.get(label, 0) + count
        occ = make_occupation(counts)
        if occ in terms:
            raise ValueError(f"line {line_no}: duplicate occupation pattern")
        terms[occ] = amp
    return StateVector(terms)

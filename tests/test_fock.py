import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from spdcsim.fock import ModeLabel, StateVector, parse_state, vacuum

from conftest import basis, label


# -- strategies ----------------------------------------------------------

labels = st.builds(
    ModeLabel,
    path=st.sampled_from(["a", "b", "c"]),
    mode=st.integers(min_value=-2, max_value=2),
)

amplitudes = st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=10, allow_nan=False, allow_infinity=False
)


@st.composite
def states(draw, max_terms=4):
    n_terms = draw(st.integers(min_value=1, max_value=max_terms))
    result = StateVector.zero()
    for _ in range(n_terms):
        occ_labels = draw(st.lists(labels, min_size=0, max_size=3))
        counts: dict[ModeLabel, int] = {}
        for lab in occ_labels:
            counts[lab] = counts.get(lab, 0) + draw(st.integers(1, 2))
        result = result + StateVector.from_occupations(counts, draw(amplitudes))
    return result


# -- construction and raising/lowering -------------------------------------


def test_vacuum_is_single_unit_term():
    v = vacuum()
    assert len(v) == 1
    assert v.amplitude({}) == 1 + 0j
    assert v.norm() == 1.0


def test_lowering_vacuum_gives_zero_state():
    assert vacuum().annihilate(label("a:0")).is_zero()


def test_raise_vacuum_once():
    assert vacuum().create(label("a:0")) == basis("a:0")


def test_raise_twice_carries_bosonic_factor():
    twice = vacuum().create(label("a:0")).create(label("a:0"))
    assert twice.amplitude({"a:0": 2} and {label("a:0"): 2}) == pytest.approx(math.sqrt(2))


def test_double_raise_inner_product_oracle():
    # By hand: a^dag^2 |vac> = sqrt(2) |2>, so the overlap with |2> is sqrt(2).
    twice = vacuum().create(label("a:0")).create(label("a:0"))
    two = basis({"a:0": 2})
    assert twice.inner(two).conjugate() == pytest.approx(math.sqrt(2))


def test_lower_single_occupation():
    assert basis("a:0").annihilate(label("a:0")) == vacuum()


def test_lower_double_occupation():
    lowered = basis({"a:0": 2}).annihilate(label("a:0"))
    assert lowered.amplitude({label("a:0"): 1}) == pytest.approx(math.sqrt(2))


# -- linear structure ---------------------------------------------------------


def test_add_zero_is_identity():
    s = basis("a:0 b:1", 0.5j)
    assert s + StateVector.zero() == s


def test_scale_by_zero_gives_zero():
    assert (basis("a:0") * 0.0).is_zero()


def test_additive_inverse_cancels():
    s = basis("a:0 b:1", 0.3 + 0.4j)
    assert (s + s * -1.0).is_zero()


def test_inner_product_orthogonality():
    assert basis("a:0").inner(basis("b:0")) == 0j


def test_norm_of_balanced_two_term_state():
    s = basis("a:0 b:0 c:0 d:0", 1 / math.sqrt(2)) + basis(
        "a:1 b:1 c:1 d:1", 1 / math.sqrt(2)
    )
    assert s.norm() == pytest.approx(1.0)


def test_inner_product_conjugate_symmetry():
    s = basis("a:0", 1 + 2j) + basis("b:0", 0.5)
    t = basis("a:0", 0.25j) + basis("b:0", -1.0)
    assert s.inner(t) == pytest.approx(t.inner(s).conjugate())


def test_misaligned_chain_overlap_matches_closed_form():
    # Direct evaluation of the closed form for the weighted two-term state
    # (|V^4> + T^4 |H^4>) / sqrt(1 + T^8) against the balanced target.
    t = 0.9
    weighted = basis("a:1 b:1 c:1 d:1") + basis("a:0 b:0 c:0 d:0", t**4)
    weighted = weighted.normalized()
    target = (basis("a:1 b:1 c:1 d:1") + basis("a:0 b:0 c:0 d:0")).normalized()
    expected = (1 + t**4) / math.sqrt(2 * (1 + t**8))
    assert target.inner(weighted).real == pytest.approx(expected, abs=1e-12)


# -- truncation -----------------------------------------------------------------


def test_truncate_keeps_vacuum():
    assert vacuum().truncate_pairs(0) == vacuum()


def test_truncate_drops_excess_photons():
    four = basis("a:0 b:0 c:0 d:0")
    assert four.truncate_pairs(1).is_zero()
    assert four.truncate_pairs(2) == four


# -- properties -------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(states(), states(), labels)
def test_raising_and_lowering_are_adjoint(s, t, lab):
    lhs = s.create(lab).inner(t)
    rhs = s.inner(t.annihilate(lab))
    assert lhs == pytest.approx(rhs, abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(states(), labels)
def test_commutator_is_identity(s, lab):
    commuted = s.create(lab).annihilate(lab) - s.annihilate(lab).create(lab)
    delta = commuted - s
    assert delta.norm() <= 1e-12 * max(s.norm(), 1.0)


@settings(max_examples=100, deadline=None)
@given(states(), states(), states())
def test_addition_is_commutative_and_associative(a, b, c):
    assert (a + b) == (b + a)
    lhs = (a + b) + c
    rhs = a + (b + c)
    assert (lhs - rhs).norm() <= 1e-12 * max(lhs.norm(), 1.0)


@settings(max_examples=100, deadline=None)
@given(states(), labels)
def test_photon_number_never_negative(s, lab):
    lowered = s.annihilate(lab).annihilate(lab).annihilate(lab).annihilate(lab)
    for occ, _ in lowered:
        assert all(n >= 1 for _, n in occ)


# -- serialization -----------------------------------------------------------------


def test_serialize_round_trip_simple():
    s = basis({"a:0": 2, "b:-1": 1}, 0.25 - 0.125j) + basis("c:3", 1e-3j)
    assert parse_state(s.serialize()) == s


@settings(max_examples=150, deadline=None)
@given(states())
def test_serialize_round_trip_is_bit_exact(s):
    recovered = parse_state(s.serialize())
    assert recovered.terms == s.terms


def test_parse_rejects_bad_lines():
    with pytest.raises(ValueError):
        parse_state("1.0 : 1*a:0")
    with pytest.raises(ValueError):
        parse_state("1.0 0.0 : nonsense")
    with pytest.raises(ValueError):
        parse_state("1.0 0.0 : 1*a:0\n2.0 0.0 : 1*a:0")


def test_parse_names_the_line_of_a_negative_count():
    with pytest.raises(ValueError, match=r"^line 3: negative occupation -1 at a:0$"):
        parse_state("1.0 0.0 : 1*a:0\n# comment\n1.0 0.0 : -1*a:0")


@pytest.mark.parametrize("amplitude", ["nan 0", "1 inf", "-inf 0", "0 nan"])
def test_parse_names_the_line_of_a_non_finite_amplitude(amplitude):
    with pytest.raises(ValueError, match=rf"^line 2: amplitude {amplitude} is not finite$"):
        parse_state(f"1.0 0.0 : 1*a:0\n{amplitude} : 1*a:1")


@pytest.mark.parametrize(
    "amplitude",
    [math.nan, math.inf, -math.inf, complex(math.nan, 0), complex(0, math.inf), complex(math.inf, math.nan)],
)
def test_a_state_refuses_a_non_finite_amplitude(amplitude):
    with pytest.raises(ValueError, match="is not finite"):
        StateVector.from_occupations({ModeLabel("a", 0): 1}, amplitude)
    with pytest.raises(ValueError, match="is not finite"):
        StateVector({(): 1.0, ((ModeLabel("a", 0), 1),): amplitude})
    with pytest.raises(ValueError, match="is not finite"):
        vacuum() * amplitude


A0, B0 = ModeLabel("a", 0), ModeLabel("b", 0)


@pytest.mark.parametrize(
    "occ",
    [
        ((B0, 1), (A0, 1)),
        ((A0, 1), (A0, 1)),
        ((A0, 0),),
        ((A0, -1), (B0, 1)),
        ((A0, 1.0),),
        ((A0, "1"),),
    ],
    ids=["labels-swapped", "label-repeated", "zero-count", "negative-count", "float-count", "text-count"],
)
def test_a_state_refuses_a_non_canonical_occupation(occ):
    with pytest.raises(ValueError, match=re.escape(f"occupation {occ!r} is not canonical")):
        StateVector({(): 1.0, occ: 0.5})


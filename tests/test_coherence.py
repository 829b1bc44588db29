import math

import pytest
from hypothesis import given, settings, strategies as st

from spdcsim.coherence import (
    CoherenceSpec,
    check_coherence,
    check_constraints,
    parse_spec_file,
)


def uniform_spec(**overrides):
    base = dict(
        pump_arms=(1.0, 1.0, 1.0, 1.0),
        downconversion_arms=(1.0, 1.0, 1.0, 1.0),
        coherence_length_spdc=1e-4,
        coherence_length_pump=1e-2,
        strictness=0.1,
    )
    base.update(overrides)
    return CoherenceSpec(**base)


def test_equal_lengths_pass_with_maximal_margins():
    report = check_coherence(uniform_spec())
    assert report.passed
    assert all(c.margin == 1.0 for c in report.constraints)


def test_large_arm_mismatch_fails_and_names_the_pair():
    lc = 1e-4
    spec = uniform_spec(
        downconversion_arms=(1.0 + 10 * lc, 1.0, 1.0, 1.0),
        coherence_length_spdc=lc,
    )
    report = check_coherence(spec)
    assert not report.passed
    names = {c.name for c in report.violations}
    assert {"l1-l2", "l1-l3", "l1-l4"} == names


def test_pump_offset_margin_value():
    lc_pump = 1e-2
    spec = uniform_spec(
        pump_arms=(1.0, 1.0, 1.0 + 0.05 * lc_pump, 1.0 + 0.05 * lc_pump),
        coherence_length_pump=lc_pump,
    )
    report = check_coherence(spec)
    assert report.passed
    by_name = {c.name: c for c in report.constraints}
    assert by_name["lp3-l1"].margin == pytest.approx(0.5)
    assert by_name["lp4-l1"].margin == pytest.approx(0.5)
    assert by_name["lp3-lp4"].margin == pytest.approx(1.0)


def test_constraint_count_matches_layout():
    report = check_coherence(uniform_spec())
    # 6 pairwise arm bounds + 2 pump bounds + 8 pump-vs-arm bounds
    assert len(report.constraints) == 16


def test_generic_constraint_list():
    report = check_constraints([("x", 0.4, 1.0), ("y", 2.0, 1.0)])
    assert not report.passed
    assert [c.name for c in report.violations] == ["y"]
    assert report.worst().name == "y"


def test_spec_validation():
    with pytest.raises(ValueError):
        uniform_spec(coherence_length_spdc=0.0)
    with pytest.raises(ValueError):
        uniform_spec(strictness=1.5)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=10.0),
    # keep the offset away from the exact pass/fail boundary (1e-2),
    # where rounding legitimately decides the verdict
    st.floats(min_value=1e-6, max_value=9e-3),
)
def test_report_is_scale_invariant(scale, offset):
    spec = uniform_spec(
        pump_arms=(1.0, 1.0, 1.0 + offset, 1.0),
        coherence_length_pump=1e-1,
    )
    scaled = CoherenceSpec(
        pump_arms=tuple(scale * v for v in spec.pump_arms),
        downconversion_arms=tuple(scale * v for v in spec.downconversion_arms),
        coherence_length_spdc=scale * spec.coherence_length_spdc,
        coherence_length_pump=scale * spec.coherence_length_pump,
        strictness=spec.strictness,
    )
    one = check_coherence(spec)
    other = check_coherence(scaled)
    assert one.passed == other.passed
    for c1, c2 in zip(one.constraints, other.constraints):
        assert c1.margin == pytest.approx(c2.margin, abs=1e-9)


def test_report_symmetry_under_arm_swap():
    lc = 1e-4
    arms = (1.0 + 0.5 * lc * 0.1, 1.0, 1.0, 1.0)
    swapped = (1.0, 1.0 + 0.5 * lc * 0.1, 1.0, 1.0)
    one = check_coherence(uniform_spec(downconversion_arms=arms, coherence_length_spdc=lc))
    other = check_coherence(uniform_spec(downconversion_arms=swapped, coherence_length_spdc=lc))
    assert one.passed == other.passed
    assert sorted(abs(c.margin) for c in one.constraints) == pytest.approx(
        sorted(abs(c.margin) for c in other.constraints)
    )


def test_parse_spec_file_round_trip():
    text = """
    # arm lengths in meters
    lp1 = 1.0
    lp2 = 1.0
    lp3 = 1.002
    lp4 = 1.002
    l1 = 1.002
    l2 = 1.002
    l3 = 1.002
    l4 = 1.002
    lc_spdc = 1e-4
    lc_pump = 1e-1
    epsilon = 0.1
    """
    spec = parse_spec_file(text)
    assert spec.pump_arms == (1.0, 1.0, 1.002, 1.002)
    assert spec.strictness == 0.1
    assert check_coherence(spec).passed


def test_parse_spec_file_reports_problems():
    with pytest.raises(ValueError, match="missing keys"):
        parse_spec_file("lp1 = 1.0")
    with pytest.raises(ValueError, match="bad number"):
        parse_spec_file("lp1 = abc")
    with pytest.raises(ValueError, match="expected one of"):
        parse_spec_file("bogus = 1.0")
    # Unchecked, the last value won: lp1 = 2.0 failed a file that passes without it.
    with pytest.raises(ValueError, match="^line 3: lp1 is given twice$"):
        parse_spec_file("lp1 = 1.0\nl1 = 1.0\nlp1 = 2.0")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_parse_spec_file_names_the_line_of_a_non_finite_value(value):
    with pytest.raises(ValueError, match=rf"^line 2: l3 = {value} is not finite$"):
        parse_spec_file(f"lp1 = 1.0\nl3 = {value}\nl4 = 1.0")


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "field",
    ["pump_arms", "downconversion_arms", "coherence_length_spdc", "coherence_length_pump", "strictness"],
)
def test_spec_refuses_a_non_finite_value_in_each_field(field, value):
    if field.endswith("_arms"):
        value = (1.0, 1.0, value, 1.0)
    message = "strictness must lie" if field == "strictness" else "must be positive and finite"
    with pytest.raises(ValueError, match=message):
        uniform_spec(**{field: value})

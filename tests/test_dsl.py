import math

import pytest
from hypothesis import given, settings, strategies as st

from spdcsim import dsl
from spdcsim.analysis import ghz_layout
from spdcsim.elements import G_WARN, Crystal, Misalignment, ModeShifter, MultimodeCrystal, PhaseShifter, Relabel
from spdcsim.experiment import Experiment
from spdcsim.fock import ModeLabel

from conftest import CORPUS, label


def test_parse_minimal_experiment():
    exp = dsl.parse("detectors a b\ncrystal a:H b:V g=0.2\n")
    assert exp.detectors == ("a", "b")
    crystal = exp.elements[0]
    assert crystal == Crystal(label("a:0"), label("b:1"), g=0.2)


def test_parse_every_statement_kind():
    text = """
    # full grammar tour
    order 3
    pairs 2
    detectors a b c d
    crystal a:0 b:0 g=0.05 modes=0,1,2
    crystal a:V d:H
    shift c -2
    phase d 3.5
    misalign a T=0.75
    relabel b d
    """
    exp = dsl.parse(text)
    assert exp.expansion_order == 3
    assert exp.max_pairs == 2
    kinds = [type(e) for e in exp.elements]
    assert kinds == [MultimodeCrystal, Crystal, ModeShifter, PhaseShifter, Misalignment, Relabel]
    assert exp.elements[0].modes == (0, 1, 2)
    assert exp.elements[1] == Crystal(label("a:1"), label("d:0"))
    assert exp.elements[4].transmissivity == 0.75
    assert exp.elements[5] == Relabel("b", "d")


def test_empty_file_reports_missing_detectors():
    with pytest.raises(dsl.ExperimentParseError) as err:
        dsl.parse("")
    assert any("missing detectors" in issue.message for issue in err.value.issues)


def test_out_of_range_transmissivity_points_at_token():
    with pytest.raises(dsl.ExperimentParseError) as err:
        dsl.parse("detectors a b\nmisalign a T=1.5\n")
    issue = err.value.issues[0]
    assert issue.span.line == 2
    assert issue.span.column == 12
    assert "1.5" in issue.message


def test_unknown_keyword_span():
    with pytest.raises(dsl.ExperimentParseError) as err:
        dsl.parse("detectors a b\n  beamsplitter a b\n")
    issue = err.value.issues[0]
    assert issue.span == dsl.SourceSpan(line=2, column=3, length=12)
    assert "unknown keyword" in issue.message


def test_malformed_number_span():
    with pytest.raises(dsl.ExperimentParseError) as err:
        dsl.parse("detectors a b\nphase a nope\n")
    issue = err.value.issues[0]
    assert issue.span.line == 2
    assert issue.span.column == 9


@pytest.mark.parametrize("phi", ["nan", "inf", "-inf"])
def test_non_finite_phase_points_at_token(phi):
    with pytest.raises(dsl.ExperimentParseError) as err:
        dsl.parse(f"detectors a b\ncrystal a:0 b:0\nphase a {phi}\n")
    issue = err.value.issues[0]
    assert (issue.span.line, issue.span.column) == (3, 9)
    assert "not finite" in issue.message


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_phase_shifter_rejects_a_non_finite_phase(phi):
    with pytest.raises(ValueError, match="not finite"):
        PhaseShifter("a", phi)


def test_duplicate_detectors_line():
    with pytest.raises(dsl.ExperimentParseError) as err:
        dsl.parse("detectors a b\ndetectors c d\n")
    assert any("duplicate detectors" in issue.message for issue in err.value.issues)


@pytest.mark.parametrize(
    "text, position, message",
    [
        ("detectors a b\norder 2\norder 3\n", (3, 1), "duplicate order line"),
        ("pairs 1\ndetectors a b\npairs 2\n", (3, 1), "duplicate pairs line"),
        ("detectors a b\ncrystal a:0 b:0 g=0.1 g=0.2\n", (2, 23), "duplicate crystal option g="),
        ("detectors a b\ncrystal a:0 b:0 modes=0,1 modes=0,2\n", (2, 27), "duplicate crystal option modes="),
    ],
    ids=["order", "pairs", "g", "modes"],
)
def test_a_repeated_setting_is_rejected_with_its_position(text, position, message):
    # Unchecked, the last one won: ``order 2`` then ``order 3`` parsed as order 3.
    with pytest.raises(dsl.ExperimentParseError) as err:
        dsl.parse(text)
    [issue] = err.value.issues
    assert (issue.span.line, issue.span.column) == position
    assert issue.message == message


def test_duplicate_detector_path():
    with pytest.raises(dsl.ExperimentParseError) as err:
        dsl.parse("detectors a a\n")
    assert any("duplicate detector path" in i.message for i in err.value.issues)


def test_a_rejected_detectors_line_is_not_also_missing():
    with pytest.raises(dsl.ExperimentParseError) as err:
        dsl.parse("detectors a a\n")
    [issue] = err.value.issues
    assert (issue.span.line, issue.span.column) == (1, 13)
    assert issue.message == "duplicate detector path 'a'"


COLON = "holds whitespace, ':' or '#'"


@pytest.mark.parametrize(
    "text, position, message",
    [
        ("detectors a b\nshift a 1 junk\n", (2, 1), "statement takes 2 argument(s), got 3"),
        ("detectors a b\nrelabel a b c\n", (2, 1), "statement takes 2 argument(s), got 3"),
        ("detectors a b\norder 2 3\n", (2, 1), "statement takes 1 argument(s), got 2"),
        ("detectors a b\nmisalign a\n", (2, 1), "statement takes 2 argument(s), got 1"),
        ("detectors a b\nshift a:0 1\n", (2, 7), f"path name 'a:0' {COLON}"),
        ("detectors a b\nrelabel a b:1\n", (2, 11), f"path name 'b:1' {COLON}"),
        ("detectors a:0 b\n", (1, 11), f"path name 'a:0' {COLON}"),
    ],
    ids=["shift-extra", "relabel-extra", "order-extra", "misalign-short", "shift-path", "relabel-path", "detector-path"],
)
def test_a_statement_takes_exactly_its_arguments_and_paths_it_can_write(text, position, message):
    # Unchecked, ``shift a 1 junk`` ran as ``shift a 1``, ``order 2 3`` as
    # ``order 2``, ``shift a:0 1`` shifted a path no photon reaches, and
    # ``detectors a:0 b`` post-selected nothing.
    with pytest.raises(dsl.ExperimentParseError) as err:
        dsl.parse(text)
    [issue] = err.value.issues
    assert (issue.span.line, issue.span.column) == position
    assert issue.message == message


def test_an_argument_count_issue_gives_the_usage_from_the_table():
    with pytest.raises(dsl.ExperimentParseError) as err:
        dsl.parse("detectors a b\nmisalign a T=0.5 b\n")
    [issue] = err.value.issues
    assert str(issue) == "2:1: statement takes 2 argument(s), got 3 (expected misalign <path> T=<float>)"


def test_all_errors_collected_in_one_pass():
    text = "bogus x\nmisalign a T=2\nphase b oops\n"
    with pytest.raises(dsl.ExperimentParseError) as err:
        dsl.parse(text)
    # three statement errors plus the missing detectors line
    lines = sorted(issue.span.line for issue in err.value.issues)
    assert lines == [1, 1, 2, 3]


def test_mode_token_overridden_by_modes_list_is_rejected():
    with pytest.raises(dsl.ExperimentParseError) as err:
        dsl.parse("detectors a b\ncrystal a:H b:2 modes=0,1\n")
    (issue,) = err.value.issues
    assert issue.span == dsl.SourceSpan(line=2, column=13, length=3)
    assert "b:2" in issue.message
    with pytest.raises(dsl.ExperimentParseError) as err:
        dsl.parse("detectors a b\ncrystal a:1 b:V g=0.05 modes=0,1\n")
    assert [(i.span.line, i.span.column) for i in err.value.issues] == [(2, 9), (2, 13)]


def test_mode_aliases_lower_to_integers():
    exp = dsl.parse("detectors a b\ncrystal a:H b:V\n")
    assert exp.elements[0].out_a.mode == 0
    assert exp.elements[0].out_b.mode == 1


def test_serialize_emits_noncanonical_settings():
    exp = Experiment(
        elements=(
            Crystal(label("a:0"), label("b:0"), g=0.15),
            PhaseShifter("b", math.pi / 2),
        ),
        detectors=("a", "b"),
        max_pairs=1,
        expansion_order=3,
    )
    text = dsl.serialize(exp)
    assert "order 3" in text
    assert "pairs 1" in text
    assert "g=0.15" in text
    assert dsl.parse(text) == exp


def test_round_trip_generated_layout_is_identity():
    exp = ghz_layout(4, 3)
    assert dsl.parse(dsl.serialize(exp)) == exp


def test_round_trip_normalizes_whitespace_only():
    messy = "detectors   a  b\ncrystal  a:0   b:0\n"
    exp = dsl.parse(messy)
    canonical = dsl.serialize(exp)
    assert canonical == "detectors a b\ncrystal a:0 b:0\n"
    assert dsl.parse(canonical) == exp


def test_serialize_of_bare_experiment_is_two_lines():
    exp = Experiment(elements=(), detectors=("a", "b"), max_pairs=1)
    assert dsl.serialize(exp) == "pairs 1\ndetectors a b\n"


def test_serialize_rejects_creation_only():
    exp = Experiment(
        elements=(Crystal(label("a:0"), label("b:0")),), detectors=("a", "b"), creation_only=True
    )
    with pytest.raises(ValueError, match="creation_only"):
        dsl.serialize(exp)


@pytest.mark.parametrize(
    "elements, detectors, message",
    [
        ((Misalignment("a", 0.9, loss="loss#0"),), ("a", "b"), "the loss field"),
        # Written as ``relabel a loss#0``, which parses as a relabel to ``loss``.
        ((Relabel("a", "loss#0"),), ("a", "b"), "'loss#0' holds whitespace"),
        ((Crystal(label("a:0"), ModeLabel("a b", 0)),), ("a", "b"), "'a b' holds whitespace"),
        ((Crystal(label("a:0"), ModeLabel("a:1", 0)),), ("a", "b"), "'a:1' holds whitespace"),
        ((), ("a", ""), "path name '' is empty"),
    ],
    ids=["misalign-loss-field", "relabel-to-loss-path", "space-in-path", "colon-in-path", "empty-detector"],
)
def test_serialize_rejects_a_path_it_cannot_write(elements, detectors, message):
    exp = Experiment(elements=(Crystal(label("a:0"), label("b:0")), *elements), detectors=detectors)
    with pytest.raises(ValueError, match=message):
        dsl.serialize(exp)


_names = st.text("abcxyz01_-", min_size=1, max_size=3)
_couplings = st.floats(min_value=0.0, max_value=G_WARN, exclude_min=True)
_labels = st.builds(ModeLabel, _names, st.integers(-3, 3))
_mode_lists = st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True).map(tuple)
_elements = st.one_of(
    st.builds(Crystal, _labels, _labels, _couplings),
    st.builds(MultimodeCrystal, _names, _names, _mode_lists, _couplings),
    st.builds(ModeShifter, _names, st.integers(-5, 5)),
    st.builds(PhaseShifter, _names, st.floats(allow_nan=False, allow_infinity=False)),
    st.builds(Misalignment, _names, st.floats(0.0, 1.0)),
    st.builds(Relabel, _names, _names),
)
_experiments = st.builds(
    Experiment,
    elements=st.lists(_elements, max_size=8).map(tuple),
    detectors=st.lists(_names, min_size=1, max_size=4, unique=True).map(tuple),
    max_pairs=st.none() | st.integers(0, 4),
    expansion_order=st.integers(1, 4),
)


@settings(max_examples=200, deadline=None)
@given(_experiments)
def test_round_trip_of_every_element_kind_is_identity(exp):
    # No corpus file holds a relabel, a negative mode or a zero pair budget.
    text = dsl.serialize(exp)
    assert dsl.parse(text) == exp
    assert dsl.serialize(dsl.parse(text)) == text


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_corpus_round_trip_idempotence(path):
    exp = dsl.parse(path.read_text())
    canonical = dsl.serialize(exp)
    assert dsl.parse(canonical) == exp
    assert dsl.serialize(dsl.parse(canonical)) == canonical


def test_corpus_is_complete():
    names = {p.name for p in CORPUS}
    assert names == {
        "induced_coherence.exp",
        "ghz4_polarization.exp",
        "ghz6_polarization.exp",
        "w4_polarization.exp",
        "ghz4_3dim_oam.exp",
        "two_photon_4dim_chain.exp",
        "ghz6_5dim_oam.exp",
        "asym_rank422_triggered.exp",
        "overlapped_double_pair.exp",
        "found_highdim_shifters.exp",
        "found_ghz4_polarization.exp",
    }

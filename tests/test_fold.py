"""``elements.fold_shifts``: the mode shifts that ``compile_run`` folds into
the sources before them.

The fold's shape is checked on small lists and on ``ghz_layout``.  Its
one promise, that the run does not move by a bit, is checked against the
unfolded list, the resolved elements evolved by ``run_keys`` on their own
``compile_layout``: the same terms in the same order with the same
``repr`` (so signed zeros count), and the same exact efficiency.
"""

import math
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from spdcsim import analysis, experiment
from spdcsim.analysis import efficiency_simulated, ghz_layout
from spdcsim.dsl import parse
from spdcsim.elements import (
    Crystal,
    Misalignment,
    ModeShifter,
    MultimodeCrystal,
    PhaseShifter,
    Relabel,
    fold_shifts,
)
from spdcsim.experiment import Experiment, compile_run, run, run_keys
from spdcsim.fock import ModeLabel

from conftest import CORPUS, load_experiment
from test_screen import CONFIGS, unfolded_compile_run
from test_search import element_table, span_keys

LADDER = ((4, 2), (4, 3), (6, 2), (6, 3), (6, 4), (6, 5), (8, 2), (8, 3))
COUPLINGS = (0.1, 0.07, 0.13)


def crystal(a, b):
    return Crystal(ModeLabel(*a), ModeLabel(*b), g=0.1)


def outcome(function, *args):
    """``repr`` of ``function(*args)``, or the ``ValueError`` it raises."""
    try:
        return repr(function(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


def assert_fold_is_bit_identical(exp):
    for variant in (exp, replace(exp, creation_only=True)):
        elements, layout = unfolded_compile_run(variant)
        reference = [(layout.decode(key), amp) for key, amp in run_keys(variant, elements, layout).items()]
        assert repr(list(run(variant).terms.items())) == repr(reference)
    # The efficiency, exact or float, with ``compile_run`` unfolded wherever
    # ``efficiency_simulated`` reaches it.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "compile_run", unfolded_compile_run)
        patch.setattr(experiment, "compile_run", unfolded_compile_run)
        expected = outcome(efficiency_simulated, exp)
    assert outcome(efficiency_simulated, exp) == expected
    if all(isinstance(e, (Crystal, MultimodeCrystal, ModeShifter, Relabel)) for e in exp.elements):
        assert expected.startswith(("Fraction(", "ValueError"))


# -- the fold's shape ------------------------------------------------------------


@pytest.mark.parametrize("n, d", LADDER)
def test_ghz_layout_folds_to_its_crystals_with_layer_k_at_mode_d_minus_1_minus_k(n, d):
    exp = ghz_layout(n, d)
    folded = fold_shifts(exp.elements)
    crystals = [e for e in exp.elements if isinstance(e, Crystal)]
    assert len(folded) == len(crystals) == n // 2 * d
    assert all(isinstance(e, Crystal) for e in folded)
    for i, (before, after) in enumerate(zip(crystals, folded)):
        layer = i // (n // 2)
        assert (after.out_a.path, after.out_b.path, after.g) == (before.out_a.path, before.out_b.path, before.g)
        assert after.out_a.mode == after.out_b.mode == d - 1 - layer
    assert compile_run(exp)[0] == folded


def test_a_shift_before_any_source_folds_to_nothing():
    source = crystal(("a", 0), ("b", 0))
    assert fold_shifts((ModeShifter("a", 2), ModeShifter("c", -1), source)) == (source,)
    assert fold_shifts((ModeShifter("a", 1),)) == ()


def test_shifts_after_a_crystal_move_its_labels():
    elements = (crystal(("a", 0), ("b", 1)), ModeShifter("a", 1), PhaseShifter("a", 0.5), ModeShifter("a", 1), ModeShifter("b", -3))
    assert fold_shifts(elements) == (crystal(("a", 2), ("b", -2)), PhaseShifter("a", 0.5))
    assert_fold_is_bit_identical(Experiment(elements=elements, detectors=("a", "b")))


def test_a_relabel_passes_its_targets_pending_shift_to_its_source():
    # ``s`` is empty after the relabel, so its own later shift moves nothing.
    elements = (crystal(("s", 0), ("b", 0)), Relabel("s", "t"), ModeShifter("s", 5), ModeShifter("t", 2))
    assert fold_shifts(elements) == (crystal(("s", 2), ("b", 0)), Relabel("s", "t"))
    assert_fold_is_bit_identical(Experiment(elements=elements, detectors=("t", "b")))


def test_the_folded_layout_need_not_lie_inside_the_unfolded_one():
    # The source's photons are in ``s`` at mode 1 before the relabel, where
    # the unfolded ``s`` has only mode 0; the state is the same.
    exp = Experiment(elements=(crystal(("s", 0), ("b", 0)), Relabel("s", "t"), ModeShifter("t", 1)), detectors=("t", "b"))
    assert compile_run(exp)[1].blocks["s"][1:] == (1, 1)
    assert unfolded_compile_run(exp)[1].blocks["s"][1:] == (0, 1)
    assert_fold_is_bit_identical(exp)


def test_a_multimode_crystal_takes_one_offset_on_both_paths():
    elements = (MultimodeCrystal("a", "b", (0, 1)), ModeShifter("a", 1), ModeShifter("b", 1))
    assert fold_shifts(elements) == (MultimodeCrystal("a", "b", (1, 2)),)
    assert_fold_is_bit_identical(Experiment(elements=elements, detectors=("a", "b")))


def test_a_moved_source_warns_no_more_than_its_parse():
    """A coupling above ``G_WARN`` warns once, when its source is built:
    the fold moves a source without building it anew, so ``run`` adds no
    warning, and the moved source equals a freshly built one."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        single = parse("detectors a b\ncrystal a:0 b:0 g=0.3\nshift a 1\n")
        multimode = Experiment(
            elements=(MultimodeCrystal("a", "b", (0, 1), g=0.3), ModeShifter("a", 1), ModeShifter("b", 1)),
            detectors=("a", "b"),
        )
        moved = (Crystal(ModeLabel("a", 1), ModeLabel("b", 0), g=0.3), MultimodeCrystal("a", "b", (1, 2), g=0.3))
        assert len(caught) == 4
        caught.clear()
        for exp in (single, multimode):
            run(exp)
        assert caught == []
        assert fold_shifts(single.elements) + fold_shifts(multimode.elements) == moved
        assert caught == []


def test_an_asymmetric_multimode_crystal_keeps_its_shifts_right_after_it():
    elements = (
        crystal(("a", 0), ("c", 0)),
        MultimodeCrystal("a", "b", (0, 1)),
        ModeShifter("a", 1),
        ModeShifter("b", 3),
        ModeShifter("a", 1),
    )
    assert fold_shifts(elements) == (elements[0], elements[1], ModeShifter("a", 2), ModeShifter("b", 3))
    # One pending offset is still a mismatch: the other path's is 0.
    one = (MultimodeCrystal("a", "t", (0, 1)), ModeShifter("t", -1))
    assert fold_shifts(one) == one
    for elements in (elements, one):
        assert_fold_is_bit_identical(Experiment(elements=elements, detectors=("a", "b", "c", "t")))


def test_a_misalignment_keeps_its_shifts_unless_its_loss_path_has_the_same_offset():
    loss = "loss#0"
    differ = (crystal(("a", 0), ("b", 0)), Misalignment("a", 0.5, loss), ModeShifter("a", 1))
    assert fold_shifts(differ) == differ
    same = (crystal(("a", 0), ("b", 0)), Misalignment("a", 0.5, loss), ModeShifter("a", 1), ModeShifter(loss, 1))
    assert fold_shifts(same) == (crystal(("a", 1), ("b", 0)), Misalignment("a", 0.5, loss))
    for elements in (differ, same):
        assert_fold_is_bit_identical(Experiment(elements=elements, detectors=("a", "b")))


# -- bit for bit -----------------------------------------------------------------


def _inserted(paths):
    """Elements to insert into a drawn setup: misalignments into named and
    unnamed loss paths, phases of 0 and pi, and shifts on the named loss
    paths, so a misalignment's two offsets can differ."""
    losses = ("loss#0", "loss#9")
    return st.one_of(
        st.builds(Misalignment, st.sampled_from(paths), st.sampled_from((0.0, 0.5, 1.0)), st.sampled_from((None, *losses))),
        st.builds(PhaseShifter, st.sampled_from(paths), st.sampled_from((0.0, math.pi))),
        st.builds(ModeShifter, st.sampled_from(losses), st.sampled_from((-1, 1))),
    )


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(CONFIGS)), st.integers(0, 2**32 - 1), st.integers(0, 10**6), st.data())
def test_the_fold_is_bit_identical_on_drawn_setups(name, seed, trial, data):
    config = replace(CONFIGS[name], seed=seed)
    elements = [element_table(config.pool)[index][0] for index in span_keys(config, trial, trial + 1)[0]]
    for position, element in data.draw(st.lists(st.tuples(st.integers(0, 10), _inserted(config.pool.paths)), max_size=3)):
        elements.insert(position % (len(elements) + 1), element)
    assert_fold_is_bit_identical(Experiment(elements=tuple(elements), detectors=config.detectors))


def scaled(exp, factor):
    """``exp`` with every crystal's coupling times ``factor``."""
    return replace(exp, elements=tuple(
        replace(e, g=e.g * factor) if isinstance(e, (Crystal, MultimodeCrystal)) else e for e in exp.elements
    ))


@pytest.mark.parametrize("g", COUPLINGS)
@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_the_fold_is_bit_identical_on_the_corpus(path, g):
    assert_fold_is_bit_identical(scaled(load_experiment(path.name), g / 0.1))


@pytest.mark.parametrize("g", COUPLINGS)
@pytest.mark.parametrize("n, d", LADDER)
def test_the_fold_is_bit_identical_on_the_ladder(n, d, g):
    assert_fold_is_bit_identical(ghz_layout(n, d, g=g))

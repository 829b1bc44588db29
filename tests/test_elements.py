import itertools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from spdcsim.elements import (
    Crystal,
    Misalignment,
    ModeShifter,
    MultimodeCrystal,
    PhaseShifter,
    Relabel,
    apply_element,
    crystal_transfer,
    element_step,
    mode_reach,
    reach_step,
    resolve_loss_paths,
    substitute,
    taylor_weights,
)
from spdcsim.fock import PRUNE_EPSILON, KeyLayout, ModeLabel, StateVector, loss_path, vacuum

from conftest import basis, label


def test_crystal_coupling_validation():
    with pytest.raises(ValueError):
        Crystal(label("a:0"), label("b:0"), g=0.0)
    with pytest.raises(ValueError):
        Crystal(label("a:0"), label("b:0"), g=0.6)
    with pytest.warns(UserWarning):
        Crystal(label("a:0"), label("b:0"), g=0.3)


def test_crystal_first_order_pair():
    c = Crystal(label("a:0"), label("b:0"), g=0.1)
    out = apply_element(vacuum(), c, order=1)
    assert out.amplitude({label("a:0"): 0}) == 1  # vacuum survives
    assert out.amplitude({label("a:0"): 1, label("b:0"): 1}) == pytest.approx(0.1)


def test_crystal_second_order_double_emission_oracle():
    # Hand expansion: (g^2/2) (a^dag b^dag)^2 |vac> = (g^2/2) * 2 |2,2>,
    # because each squared raising operator contributes sqrt(2).
    g = 0.1
    c = Crystal(label("a:0"), label("b:0"), g=g)
    out = apply_element(vacuum(), c, order=2)
    amp = out.amplitude({label("a:0"): 2, label("b:0"): 2})
    assert amp == pytest.approx(g * g, abs=1e-15)


def test_two_crystals_product_amplitude():
    g = 0.1
    c1 = Crystal(label("a:0"), label("b:0"), g=g)
    c2 = Crystal(label("c:0"), label("d:0"), g=g)
    out = apply_element(apply_element(vacuum(), c1), c2)
    amp = out.amplitude({label(p): 1 for p in ("a:0", "b:0", "c:0", "d:0")})
    assert amp == pytest.approx(g * g, abs=1e-15)


def test_crystal_expansion_includes_lowering_terms():
    # Pure emission on a seeded pair leaves the vacuum amplitude alone;
    # the full expansion feeds the pair back into it at first order.
    g = 0.1
    c = Crystal(label("a:0"), label("b:0"), g=g)
    pair = basis("a:0 b:0")
    full = apply_element(pair, c, order=1)
    emission_only = apply_element(pair, c, order=1, creation_only=True)
    assert full.amplitude({}) == pytest.approx(-g)
    assert emission_only.amplitude({}) == 0


def test_crystal_unitarity_deviation_bounded():
    g = 0.1
    c = Crystal(label("a:0"), label("b:0"), g=g)
    out = apply_element(vacuum(), c, order=2)
    assert abs(out.norm() - 1.0) <= g**4


def test_multimode_first_order_matches_mode_sum():
    mc = MultimodeCrystal("a", "b", modes=(0, 1, 2), g=0.1)
    out = apply_element(vacuum(), mc, order=1)
    for m in (0, 1, 2):
        assert out.amplitude(
            {ModeLabel("a", m): 1, ModeLabel("b", m): 1}
        ) == pytest.approx(0.1)


def test_multimode_single_mode_degenerates_to_crystal():
    mc = MultimodeCrystal("a", "b", modes=(0,), g=0.1)
    c = Crystal(label("a:0"), label("b:0"), g=0.1)
    assert apply_element(vacuum(), mc) == apply_element(vacuum(), c)


def test_multimode_second_order_matches_squared_sum_oracle():
    # Brute-force expansion of (sum_m a^dag_m b^dag_m)^2 |vac>:
    # distinct modes m < m' give amplitude 2 * (g^2/2) = g^2 on |m,m'>x|m,m'>,
    # equal modes give (g^2/2) * 2 = g^2 on |2m> x |2m>.
    g = 0.1
    mc = MultimodeCrystal("a", "b", modes=(0, 1, 2), g=g)
    out = apply_element(vacuum(), mc, order=2)
    four = out.photon_sector(4)
    expected_patterns = 0
    for m in range(3):
        amp = four.amplitude({ModeLabel("a", m): 2, ModeLabel("b", m): 2})
        assert amp == pytest.approx(g * g, abs=1e-15)
        expected_patterns += 1
    for m in range(3):
        for mp in range(m + 1, 3):
            amp = four.amplitude(
                {
                    ModeLabel("a", m): 1,
                    ModeLabel("a", mp): 1,
                    ModeLabel("b", m): 1,
                    ModeLabel("b", mp): 1,
                }
            )
            assert amp == pytest.approx(g * g, abs=1e-14)
            expected_patterns += 1
    assert len(four) == expected_patterns


def test_mode_shift_single_photon():
    out = apply_element(basis("a:0"), ModeShifter("a", 1))
    assert out == basis("a:1")


def test_mode_shift_zero_is_identity():
    s = basis("a:0 b:2", 0.5j)
    assert apply_element(s, ModeShifter("a", 0)) == s


def test_mode_shift_moves_every_photon_in_path():
    # Conjugating the doubled raising operator by the shift map sends
    # a^dag_{a,0}^2 to a^dag_{a,1}^2, amplitudes untouched.
    s = basis({"a:0": 2}, 0.7)
    out = apply_element(s, ModeShifter("a", 1))
    assert out == basis({"a:1": 2}, 0.7)


def test_mode_shift_round_trip_is_identity():
    s = basis("a:0 a:1 b:-1", 1 - 1j)
    out = apply_element(apply_element(s, ModeShifter("a", 3)), ModeShifter("a", -3))
    assert out == s


def test_phase_shift_single_photon():
    out = apply_element(basis("b:0"), PhaseShifter("b", math.pi / 2))
    assert out.amplitude({label("b:0"): 1}) == pytest.approx(1j)


def test_phase_shift_zero_is_identity():
    s = basis("a:0 b:0")
    assert apply_element(s, PhaseShifter("b", 0.0)) == s


def test_phase_shift_counts_photons():
    out = apply_element(basis({"b:0": 2}), PhaseShifter("b", math.pi / 2))
    assert out.amplitude({label("b:0"): 2}) == pytest.approx(-1)


def test_phase_and_mode_shift_commute_on_disjoint_paths():
    s = basis("a:0 b:0", 0.8) + basis({"a:1": 2}, 0.2j)
    shift = ModeShifter("a", 2)
    phase = PhaseShifter("b", 0.7)
    one = apply_element(apply_element(s, shift), phase)
    other = apply_element(apply_element(s, phase), shift)
    assert one == other


def test_misalignment_perfect_transmission_is_identity():
    s = basis("a:0 b:1", 0.6)
    out = apply_element(s, Misalignment("a", 1.0, loss="loss#0"))
    assert out == s


def test_misalignment_single_photon_split():
    t = 0.9
    out = apply_element(basis("a:0"), Misalignment("a", t, loss="loss#0"))
    assert out.amplitude({label("a:0"): 1}) == pytest.approx(t)
    assert out.amplitude({ModeLabel("loss#0", 0): 1}) == pytest.approx(math.sqrt(1 - t * t))


def test_misalignment_two_photon_binomial_oracle():
    # Expanding (T a^dag + R a^dag_loss)^2 |vac> / sqrt(2) by hand gives
    # T^2 |2,0> + sqrt(2) T R |1,1> + R^2 |0,2>.
    t = 0.8
    r = math.sqrt(1 - t * t)
    out = apply_element(basis({"a:0": 2}), Misalignment("a", t, loss="loss#0"))
    assert out.amplitude({label("a:0"): 2}) == pytest.approx(t * t)
    assert out.amplitude(
        {label("a:0"): 1, ModeLabel("loss#0", 0): 1}
    ) == pytest.approx(math.sqrt(2) * t * r)
    assert out.amplitude({ModeLabel("loss#0", 0): 2}) == pytest.approx(r * r)


def test_misalignment_without_loss_path_is_rejected():
    # Loss paths are named only by resolve_loss_paths, by element position.
    with pytest.raises(ValueError, match="no loss path"):
        apply_element(basis("a:0"), Misalignment("a", 0.9))


def test_relabel_moves_single_photon():
    assert apply_element(basis("b:0"), Relabel("b", "d")) == basis("d:0")


def test_relabel_of_absent_path_is_identity():
    s = basis("a:0 c:1")
    assert apply_element(s, Relabel("b", "d")) == s


def test_relabel_merge_rebuilds_bosonic_factor():
    # Rebuilding from raising operators: a^dag_b a^dag_d |vac> with b -> d
    # becomes a^dag_d^2 |vac> = sqrt(2) |2_d>.
    out = apply_element(basis("b:0 d:0"), Relabel("b", "d"))
    assert out.amplitude({label("d:0"): 2}) == pytest.approx(math.sqrt(2))


def test_relabel_merges_only_matching_modes():
    out = apply_element(basis("b:1 d:0"), Relabel("b", "d"))
    assert out == basis("d:0 d:1")


def test_an_overflowing_application_raises():
    # Two finite amplitudes near the float maximum merge into one that
    # overflows; the step's state must refuse it as a built state would.
    state = basis("a:0", 1.5e308) + basis("b:0", 1.5e308)
    with pytest.raises(ValueError, match=r"^amplitude \(inf\+0j\) is not finite$"):
        apply_element(state, Relabel("b", "a"))


def test_an_application_that_overflows_to_nan_raises():
    # The two terms land on a:0 x3 as inf and -inf, which sum to nan; the
    # step's prune must keep the nan, so the state is refused, not emptied.
    a, b = label("a:0"), label("b:0")
    state = StateVector({((a, 2), (b, 1)): 1.5e308, ((a, 1), (b, 2)): -1.5e308})
    with pytest.raises(ValueError, match=r"^amplitude \(nan\+0j\) is not finite$"):
        apply_element(state, Relabel("b", "a"))


def test_resolve_loss_paths_is_positional():
    elements = (
        Misalignment("a", 0.9),
        ModeShifter("a", 1),
        Misalignment("b", 0.8),
        Misalignment("c", 0.7, loss="loss#7"),
    )
    resolved = resolve_loss_paths(elements)
    assert resolved[0].loss == "loss#0"
    assert resolved[2].loss == "loss#1"
    assert resolved[3].loss == "loss#7"


# -- properties ------------------------------------------------------------------

paths = st.sampled_from(["a", "b"])


@st.composite
def small_states(draw):
    result = StateVector.zero()
    for _ in range(draw(st.integers(1, 3))):
        counts = {}
        for _ in range(draw(st.integers(0, 3))):
            lab = ModeLabel(draw(paths), draw(st.integers(0, 2)))
            counts[lab] = counts.get(lab, 0) + 1
        amp = draw(
            st.complex_numbers(min_magnitude=1e-2, max_magnitude=2, allow_nan=False, allow_infinity=False)
        )
        result = result + StateVector.from_occupations(counts, amp)
    return result


@settings(max_examples=100, deadline=None)
@given(small_states(), st.floats(min_value=0.0, max_value=1.0))
def test_misalignment_preserves_norm(s, t):
    out = apply_element(s, Misalignment("a", t, loss="loss#0"))
    assert out.norm() == pytest.approx(s.norm(), rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(small_states(), paths, st.integers(min_value=-3, max_value=3), st.floats(min_value=-7, max_value=7))
def test_shift_and_phase_preserve_norm_and_term_count(s, path, delta, phi):
    for element in (ModeShifter(path, delta), PhaseShifter(path, phi)):
        out = apply_element(s, element)
        assert len(out) == len(s)
        assert out.norm() == pytest.approx(s.norm(), rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(small_states(), paths, st.integers(min_value=-3, max_value=3))
def test_shift_there_and_back_is_identity(s, path, delta):
    there = apply_element(s, ModeShifter(path, delta))
    assert apply_element(there, ModeShifter(path, -delta)) == s


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.02, max_value=0.2), st.floats(min_value=0.02, max_value=0.2))
def test_disjoint_crystals_commute(g1, g2):
    c1 = Crystal(label("a:0"), label("b:0"), g=g1)
    c2 = Crystal(label("c:1"), label("d:1"), g=g2)
    one = apply_element(apply_element(vacuum(), c1), c2)
    other = apply_element(apply_element(vacuum(), c2), c1)
    # Equality in canonical form: the difference prunes to nothing.
    assert (one - other).is_zero()


PRUNE_LAYOUT = KeyLayout({"a": {0, 1}, "b": {0}}, 3)
PRUNE_KEYS = [
    sum(n << offset for n, offset in zip(counts, PRUNE_LAYOUT.fields.values()))
    for counts in itertools.product(range(4), repeat=3)
    if sum(counts) <= 3
]
# A phase of 0 passes amplitudes through bit for bit, a shift of a path
# off the layout adds each to 0, and a phase of pi, a relabel and a
# crystal compute new ones.
PRUNE_ELEMENTS = [
    PhaseShifter("b", 0.0),
    PhaseShifter("a", math.pi),
    ModeShifter("c", 1),
    Relabel("b", "a"),
    Crystal(label("a:1"), label("b:0")),
]
prune_parts = st.one_of(
    st.sampled_from([0.0, -0.0, PRUNE_EPSILON, -PRUNE_EPSILON, math.nextafter(PRUNE_EPSILON, 1.0)]),
    st.floats(-1.0, 1.0),
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(PRUNE_ELEMENTS),
    st.dictionaries(st.sampled_from(PRUNE_KEYS), st.builds(complex, prune_parts, prune_parts), max_size=12),
)
@example(
    PhaseShifter("b", 0.0),
    # a:0, a:1, b:0 and a:0 b:0, each field 3 bits wide
    {1: complex(PRUNE_EPSILON, -0.0), 8: complex(-PRUNE_EPSILON, 0.0), 64: complex(-0.0, 0.5), 65: complex(PRUNE_EPSILON, PRUNE_EPSILON)},
)
def test_the_step_prunes_as_the_rebuilt_dict(element, terms):
    # The reference for any other way of pruning, such as deleting from
    # the kernel's fresh dict: the same keys, order and value bits, with
    # magnitudes at exactly PRUNE_EPSILON dropped and ``terms`` untouched.
    before = repr(list(terms.items()))
    if isinstance(element, Crystal):
        unpruned = crystal_transfer(element, taylor_weights(element.g, 2), PRUNE_LAYOUT)(terms)
    else:
        unpruned = substitute(terms, element, PRUNE_LAYOUT)
    want = {key: amp for key, amp in unpruned.items() if abs(amp) > PRUNE_EPSILON}
    got = element_step(element, PRUNE_LAYOUT, order=2, creation_only=False, limit=None)(terms)
    assert repr(list(got.items())) == repr(list(want.items()))
    assert repr(list(terms.items())) == before


REACH_PATHS = st.sampled_from(["a", "b", "c"])
# Passive elements may also act on the misalignments' loss paths, and
# relabels may end on them.
ANY_PATH = st.sampled_from(["a", "b", "c", loss_path(0), loss_path(1)])
REACH_MODES = st.integers(-2, 2)
reach_elements = st.one_of(
    st.builds(Crystal, st.builds(ModeLabel, REACH_PATHS, REACH_MODES), st.builds(ModeLabel, REACH_PATHS, REACH_MODES)),
    st.builds(MultimodeCrystal, REACH_PATHS, REACH_PATHS, st.lists(REACH_MODES, min_size=1, max_size=3, unique=True).map(tuple)),
    st.builds(ModeShifter, ANY_PATH, st.integers(-2, 2)),
    st.builds(PhaseShifter, ANY_PATH, st.floats(-math.pi, math.pi)),
    st.builds(Misalignment, REACH_PATHS, st.floats(0.0, 1.0), loss=st.sampled_from([loss_path(0), loss_path(1)])),
    st.builds(Relabel, ANY_PATH, ANY_PATH),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(reach_elements, max_size=8), reach_elements, st.data())
def test_a_step_added_anywhere_never_shrinks_the_mode_reach(elements, added, data):
    # The search's pool reach folds every step it may draw on the strength
    # of this: a fold over more steps holds each fold over fewer.
    steps = [reach_step(element) for element in elements]
    at = data.draw(st.integers(0, len(steps)))
    before = mode_reach(steps)
    after = mode_reach(steps[:at] + [reach_step(added)] + steps[at:])
    assert all(modes <= after.get(path, set()) for path, modes in before.items())

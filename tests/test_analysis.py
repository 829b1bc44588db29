import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spdcsim.analysis import (
    _monomial_norm,
    _monomial_terms,
    efficiency_formula,
    efficiency_report,
    efficiency_simulated,
    fidelity,
    ghz_layout,
    ghz_target,
    round_robin_matchings,
    schmidt_rank_vector,
    two_photon_builder,
    w_target,
)
from spdcsim.elements import Crystal, PhaseShifter
from spdcsim.experiment import compile_run, post_select, run, sector_rule
from spdcsim.fock import ModeLabel, StateVector

from conftest import basis


# -- independent oracle: dense coefficient tensor + SVD per party ------------


def srv_oracle(state, parties):
    """Brute-force rank computation over a dense coefficient tensor."""
    state = state.normalized()
    axes = []
    for party in parties:
        values = set()
        for occ, _ in state.terms.items():
            values.add(tuple(sorted((l.mode, n) for l, n in occ if l.path == party)))
        axes.append(sorted(values))
    rest_values = sorted(
        {
            tuple(sorted(item for item in occ if item[0].path not in parties))
            for occ, _ in state.terms.items()
        }
    )
    shape = [len(v) for v in axes] + [len(rest_values)]
    tensor = np.zeros(shape, dtype=complex)
    for occ, amp in state.terms.items():
        index = []
        for party, values in zip(parties, axes):
            local = tuple(sorted((l.mode, n) for l, n in occ if l.path == party))
            index.append(values.index(local))
        rest = tuple(sorted(item for item in occ if item[0].path not in parties))
        index.append(rest_values.index(rest))
        tensor[tuple(index)] += amp
    ranks = []
    for axis in range(len(parties)):
        moved = np.moveaxis(tensor, axis, 0)
        matrix = moved.reshape(moved.shape[0], -1)
        ranks.append(int(np.sum(np.linalg.svd(matrix, compute_uv=False) > 1e-10)))
    return tuple(ranks)


# -- targets -------------------------------------------------------------------


def test_ghz_target_two_level_four_photon():
    state = ghz_target(4, 2)
    assert len(state) == 2
    assert state.norm() == pytest.approx(1.0)
    amp = state.amplitude({ModeLabel(p, 0): 1 for p in "abcd"})
    assert amp == pytest.approx(1 / math.sqrt(2))


def test_ghz_target_three_level():
    state = ghz_target(4, 3)
    assert len(state) == 3
    assert state.amplitude({ModeLabel(p, 2): 1 for p in "abcd"}) == pytest.approx(1 / math.sqrt(3))


def test_ghz_target_pair_is_bell_state():
    bell = ghz_target(2, 2, paths=("a", "b"))
    assert bell.amplitude({ModeLabel("a", 0): 1, ModeLabel("b", 0): 1}) == pytest.approx(
        1 / math.sqrt(2)
    )
    assert len(bell) == 2
    # Unchecked, a repeated path gave the one-photon state (|a:0> + |a:1>)/sqrt(2).
    with pytest.raises(ValueError, match="paths must be distinct, got a, a"):
        ghz_target(2, 2, paths=("a", "a"))


def test_w_target_four_photon():
    state = w_target(4)
    assert len(state) == 4
    for occ, amp in state:
        assert amp == pytest.approx(0.5)
        assert sum(n for l, n in occ if l.mode == 1) == 1


def test_w_target_three_photon():
    state = w_target(3)
    assert len(state) == 3
    assert state.norm() == pytest.approx(1.0)
    with pytest.raises(ValueError, match="paths must be distinct, got a, b, a"):
        w_target(3, paths=("a", "b", "a"))


def test_w_and_ghz_overlap():
    # Direct inner product: the states share no basis term, overlap 0.
    assert w_target(4).inner(ghz_target(4, 2)) == 0j


# -- fidelity --------------------------------------------------------------------


def test_fidelity_identical_states():
    s = ghz_target(4, 2)
    assert fidelity(s, s) == pytest.approx(1.0)


def test_fidelity_orthogonal_states():
    assert fidelity(basis("a:0"), basis("a:1")) == 0.0


def test_fidelity_normalizes_inputs():
    assert fidelity(basis("a:0", 5.0), basis("a:0", 0.1)) == pytest.approx(1.0)


def test_fidelity_zero_state_is_an_error():
    with pytest.raises(ValueError):
        fidelity(StateVector.zero(), basis("a:0"))


def test_fidelity_weighted_two_term_closed_form():
    t = 0.9
    weighted = basis("a:1 b:1 c:1 d:1") + basis("a:0 b:0 c:0 d:0", t**4)
    expected = (1 + t**4) ** 2 / (2 * (1 + t**8))
    assert fidelity(weighted, ghz_target(4, 2)) == pytest.approx(expected, abs=1e-12)


# -- Schmidt-rank vectors -----------------------------------------------------------


def test_srv_product_state():
    srv = schmidt_rank_vector(basis("a:0 b:0 c:0"), ["a", "b", "c"])
    assert srv.ranks == (1, 1, 1)


def test_srv_three_level_ghz_matches_oracle():
    state = ghz_target(3, 3)
    srv = schmidt_rank_vector(state, ["a", "b", "c"])
    assert srv.ranks == (3, 3, 3)
    assert srv_oracle(state, ["a", "b", "c"]) == (3, 3, 3)


def test_srv_triggered_asymmetric_state():
    # 1/2 |0_t> (|000> + |101> + |210> + |311>) has ranks (4, 2, 2).
    state = StateVector.zero()
    for k, (b, c) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        state = state + StateVector.from_occupations(
            {ModeLabel("t", 0): 1, ModeLabel("a", k): 1, ModeLabel("b", b): 1, ModeLabel("c", c): 1},
            0.5,
        )
    srv = schmidt_rank_vector(state, ["a", "b", "c"])
    assert srv.ranks == (4, 2, 2)
    assert srv_oracle(state, ["a", "b", "c"]) == (4, 2, 2)


def test_srv_requires_constant_party_occupancy():
    state = basis("a:0 b:0") + basis({"a:0": 2}, 0.5)
    with pytest.raises(ValueError):
        schmidt_rank_vector(state, ["a", "b"])


def test_srv_invariant_under_local_mode_relabeling():
    state = ghz_target(3, 3)
    permuted = StateVector.zero()
    swap = {0: 2, 1: 0, 2: 1}
    for occ, amp in state:
        counts = {
            (ModeLabel(l.path, swap[l.mode]) if l.path == "b" else l): n for l, n in occ
        }
        permuted = permuted + StateVector.from_occupations(counts, amp)
    assert schmidt_rank_vector(permuted, ["a", "b", "c"]).ranks == (3, 3, 3)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 12 - 1))
def test_srv_matches_oracle_on_random_three_party_states(bits):
    # Random sparse three-party states over two modes per party.
    terms = []
    for i in range(12):
        if bits >> i & 1:
            terms.append(i)
    if not terms:
        terms = [0]
    state = StateVector.zero()
    for i in terms:
        modes = (i & 1, i >> 1 & 1, i >> 2 & 1)
        amp = 1.0 + 0.25 * (i % 3)
        state = state + StateVector.from_occupations(
            {ModeLabel(p, m): 1 for p, m in zip("abc", modes)}, amp
        )
    srv = schmidt_rank_vector(state, ["a", "b", "c"])
    assert srv.ranks == srv_oracle(state, ["a", "b", "c"])


# -- efficiency -------------------------------------------------------------------


def test_efficiency_formula_values():
    assert efficiency_formula(4, 2) == Fraction(1, 8)
    assert efficiency_formula(4, 3) == Fraction(1, 12)
    assert efficiency_formula(6, 5) == Fraction(1, 675)


def test_efficiency_formula_rejects_odd_photon_number():
    with pytest.raises(ValueError):
        efficiency_formula(3, 3)


def pattern_count_oracle(n, d):
    """Exhaustive unordered emission patterns of two pairs from the layout.

    Every multiset of two crystals carries the same squared amplitude
    (double emissions included, their bosonic factor cancels the 1/2!),
    and exactly the d same-layer matchings yield one photon per path.
    """
    matchings = round_robin_matchings(n)[:d]
    crystals = [(layer, pair) for layer, m in enumerate(matchings) for pair in m]
    total = 0
    valid = 0
    for combo in itertools.combinations_with_replacement(range(len(crystals)), n // 2):
        total += 1
        counts: dict[int, int] = {}
        for index in combo:
            for vertex in crystals[index][1]:
                counts[vertex] = counts.get(vertex, 0) + 1
        if all(counts.get(v, 0) == 1 for v in range(n)):
            valid += 1
    return Fraction(valid, total)


@pytest.mark.parametrize("n, d", [(4, 2), (4, 3), (6, 2), (6, 3), (6, 4), (6, 5), (8, 2), (8, 3)])
def test_monomial_norm_is_the_field_by_field_product_on_the_ladders_sector_keys(n, d):
    exp = ghz_layout(n, d)
    elements, layout = compile_run(exp)
    multi = (layout.mask - 1) * sum(1 << i * layout.width for i in range(len(layout.labels)))
    in_sector = sector_rule(layout, n)
    keys = [(key, coeff) for key, coeff in _monomial_terms(exp, elements, layout).items() if in_sector(key)]
    assert any(key & multi for key, _ in keys)
    for key, coeff in keys:
        reference = coeff * coeff * math.prod(math.factorial(count) for _, count in layout.decode(key))
        assert _monomial_norm(key, coeff, layout, multi) == reference


def test_efficiency_simulated_two_level():
    value = efficiency_simulated(ghz_layout(4, 2))
    assert value == Fraction(1, 5)
    assert value == pattern_count_oracle(4, 2)


def test_efficiency_simulated_three_level():
    value = efficiency_simulated(ghz_layout(4, 3))
    assert value == Fraction(1, 7)
    assert value == pattern_count_oracle(4, 3)


@pytest.mark.parametrize(
    "n, d, expected",
    [
        (4, 2, Fraction(1, 5)),
        (4, 3, Fraction(1, 7)),
        (6, 2, Fraction(1, 28)),
        (6, 3, Fraction(4, 165)),
        (6, 4, Fraction(2, 91)),
        (6, 5, Fraction(3, 136)),
        (8, 2, Fraction(1, 165)),
        (8, 3, Fraction(1, 273)),
    ],
)
def test_ladder_efficiency_does_not_depend_on_the_coupling(n, d, expected):
    # The default g = 0.1 is test_kernel.py::test_monomial_convention_gives_ladder_fractions.
    for g in (0.05, 0.15):
        assert efficiency_simulated(ghz_layout(n, d, g=g)) == expected


def test_efficiency_simulated_single_matching_is_perfect():
    assert efficiency_simulated(ghz_layout(2, 1)) == Fraction(1, 1)


def test_efficiency_report_surfaces_both_values():
    report = efficiency_report(4, 2, simulate=ghz_layout(4, 2))
    assert report.formula_value == Fraction(1, 8)
    assert report.simulated_value == Fraction(1, 5)
    assert "ordered" in report.discrepancy_note
    assert "gives 1/5 instead of 1/8" in report.discrepancy_note


def with_phase(exp):
    """``exp`` followed by a phase, whose irrational amplitudes make the
    simulated efficiency a float."""
    return replace(exp, elements=exp.elements + (PhaseShifter("a", 0.5),))


def test_a_float_efficiency_gets_no_note():
    # The ordering argument explains an exact value that differs from the
    # closed form; a float one that happens to differ gets no note.
    report = efficiency_report(4, 2, simulate=with_phase(ghz_layout(4, 2)))
    assert report.formula_value == Fraction(1, 8)
    assert type(report.simulated_value) is float
    assert report.simulated_value != report.formula_value
    assert report.discrepancy_note == ""
    assert efficiency_report(4, 2).discrepancy_note == ""


def test_efficiency_decreases_with_photon_number():
    for d in (2, 3):
        values = [efficiency_formula(n, d) for n in (4, 6, 8)]
        assert values == sorted(values, reverse=True)
    simulated = [efficiency_simulated(ghz_layout(n, 2)) for n in (4, 6)]
    assert simulated[0] > simulated[1]


# -- layout generation ---------------------------------------------------------------


def test_round_robin_structure():
    for n in (2, 4, 6, 8):
        rounds = round_robin_matchings(n)
        assert len(rounds) == n - 1
        seen = set()
        for matching in rounds:
            vertices = [v for pair in matching for v in pair]
            assert sorted(vertices) == list(range(n))
            for pair in matching:
                assert pair not in seen
                seen.add(pair)
        assert len(seen) == n * (n - 1) // 2


def test_ghz_layout_rejects_exhausted_factorization():
    with pytest.raises(ValueError, match="1-factorization exhausted"):
        ghz_layout(4, 4)
    with pytest.raises(ValueError):
        ghz_layout(5, 2)


def test_ghz_layout_two_level_matches_target():
    exp = ghz_layout(4, 2)
    selected = post_select(run(exp), exp.detectors)
    assert fidelity(selected.state, ghz_target(4, 2)) == pytest.approx(1.0, abs=1e-12)
    # Unchecked, a fifth path became a detector no crystal feeds.
    with pytest.raises(ValueError, match="expected 4 paths, got 5"):
        ghz_layout(4, 2, paths="abcde")


def test_ghz_layout_three_level_matches_target():
    exp = ghz_layout(4, 3)
    selected = post_select(run(exp), exp.detectors)
    assert fidelity(selected.state, ghz_target(4, 3)) == pytest.approx(1.0, abs=1e-12)


def test_ghz_layout_six_photon_two_level_matches_target():
    exp = ghz_layout(6, 2)
    selected = post_select(run(exp), exp.detectors)
    assert fidelity(selected.state, ghz_target(6, 2)) == pytest.approx(1.0, abs=1e-12)


def test_ghz_layout_six_photon_three_level_has_cross_layer_terms():
    # With three or more layers on six paths, disjoint edges drawn from
    # three different layers can also cover all six detectors, so the
    # coincidence state carries terms beyond the d diagonal ones and the
    # overlap with the diagonal target drops below one.  On four paths
    # any two disjoint edges belong to one matching, so the four-photon
    # layouts stay exact.
    exp = ghz_layout(6, 3)
    selected = post_select(run(exp), exp.detectors)
    assert len(selected.state) == 4
    assert fidelity(selected.state, ghz_target(6, 3)) == pytest.approx(0.75, abs=1e-12)


def test_ghz_layout_shifts_assign_one_mode_per_layer():
    exp = ghz_layout(4, 3)
    state = post_select(run(exp), exp.detectors).state
    modes = {occ[0][0].mode for occ, _ in state}
    assert modes == {0, 1, 2}


# -- two-photon chain builder -----------------------------------------------------------


def chain_target(coefficients):
    state = StateVector.zero()
    for k, c in enumerate(coefficients):
        if c:
            state = state + StateVector.from_occupations(
                {ModeLabel("a", k): 1, ModeLabel("b", k): 1}, c
            )
    return state.normalized()


def test_builder_quarter_turn_chain():
    coefficients = [1, 1j, -1, -1j]
    exp = two_photon_builder(coefficients)
    selected = post_select(run(exp), exp.detectors)
    assert fidelity(selected.state, chain_target(coefficients)) == pytest.approx(1.0, abs=1e-12)
    amps = {occ[0][0].mode: amp for occ, amp in selected.state}
    for k in (1, 2, 3):
        assert amps[k] / amps[0] == pytest.approx([1j, -1, -1j][k - 1], abs=1e-12)


def test_builder_two_level_chain_is_balanced_pair_source():
    exp = two_photon_builder([1, 1])
    selected = post_select(run(exp), exp.detectors)
    assert fidelity(selected.state, ghz_target(2, 2, paths=("a", "b"))) == pytest.approx(
        1.0, abs=1e-12
    )


def test_builder_rejects_zero_vector():
    with pytest.raises(ValueError):
        two_photon_builder([0, 0, 0])


def test_builder_skips_zero_coefficients():
    exp = two_photon_builder([1, 0, 1])
    selected = post_select(run(exp), exp.detectors)
    target = chain_target([1, 0, 1])
    assert fidelity(selected.state, target) == pytest.approx(1.0, abs=1e-12)
    crystals = [e for e in exp.elements if isinstance(e, Crystal)]
    assert len(crystals) == 2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_builder_round_trip_on_random_coefficients(seed, dim):
    rng = np.random.default_rng(seed)
    coefficients = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    coefficients /= np.linalg.norm(coefficients)
    exp = two_photon_builder(coefficients)
    selected = post_select(run(exp), exp.detectors)
    assert fidelity(selected.state, chain_target(coefficients)) == pytest.approx(
        1.0, abs=1e-10
    )

import importlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdcsim.analysis import ghz_target
from spdcsim.elements import Crystal, ModeShifter, MultimodeCrystal, PhaseShifter, Relabel
from spdcsim.experiment import Experiment
from spdcsim.fock import ModeLabel, StateVector
from spdcsim.search import (
    ElementPool,
    FidelityTarget,
    SearchConfig,
    SrvTarget,
    TrialRng,
    _accepts,
    _run_span,
    _trial_rng,
    _trial_rngs,
    evaluate,
    random_setup,
    search,
    search_with_stats,
)

from conftest import load_experiment

# The package re-exports the function ``search`` under the module's name.
search_module = importlib.import_module("spdcsim.search")

POL_POOL = ElementPool(paths=("a", "b", "c", "d"), kinds=("crystal",), crystal_modes=((0, 0), (1, 1)))


MIXED_CONFIG = SearchConfig(
    pool=ElementPool(
        paths=("t", "a", "b", "c"),
        kinds=("crystal", "multimode", "shift", "phase", "relabel"),
        crystal_modes=((0, 0), (0, 1), (1, 0), (1, 1)),
    ),
    detectors=("t", "a", "b", "c"),
    target=SrvTarget(parties=("a", "b", "c"), ranks=(4, 2, 2)),
    max_elements=6,
)


def pol_config(**overrides):
    base = dict(
        pool=POL_POOL,
        detectors=("a", "b", "c", "d"),
        target=FidelityTarget(ghz_target(4, 2), threshold=0.999),
        max_elements=4,
        budget=3000,
        seed=20240817,
    )
    base.update(overrides)
    return SearchConfig(**base)


def test_random_setup_samples_within_the_pool():
    config = pol_config()
    for trial in range(50):
        exp = random_setup(config, trial)
        assert 1 <= len(exp.elements) <= 4
        assert exp.detectors == ("a", "b", "c", "d")
        for element in exp.elements:
            assert isinstance(element, Crystal)
            assert (element.out_a.mode, element.out_b.mode) in ((0, 0), (1, 1))
            assert element.out_a.path != element.out_b.path


def test_random_setup_reaches_four_crystal_layouts():
    config = pol_config()
    sizes = {
        len(random_setup(config, trial).elements)
        for trial in range(200)
    }
    assert sizes == {1, 2, 3, 4}


def test_pool_restriction_to_crystals_and_shifters():
    pool = ElementPool(paths=("a", "b", "c", "d"), kinds=("crystal", "shift"))
    config = pol_config(pool=pool, max_elements=6)
    seen = set()
    for trial in range(100):
        exp = random_setup(config, trial)
        for element in exp.elements:
            assert isinstance(element, (Crystal, ModeShifter))
            seen.add(type(element))
    assert seen == {Crystal, ModeShifter}


@pytest.mark.parametrize(
    "options, message",
    [
        ({"kinds": ()}, "at least one element kind"),
        ({"crystal_modes": ()}, "crystal mode pair"),
        ({"kinds": ("shift", "crystal"), "crystal_modes": ()}, "crystal mode pair"),
        ({"paths": ("a", "b", "a", "d")}, "paths has duplicates"),
    ],
    ids=["no-kinds", "no-crystal-modes", "crystal-among-kinds-without-modes", "repeated-path"],
)
def test_a_pool_that_cannot_draw_its_setups_is_rejected(options, message):
    # Unchecked, an empty crystal block let index 0 fall into the multimode
    # block, empty kinds failed mid-search, and a repeated path drew
    # crystals from a path into itself.
    with pytest.raises(ValueError, match=message):
        ElementPool(**{"paths": ("a", "b", "c", "d"), **options})


# Exact draws on the five-kind pool: they pin the drawn parameter values
# and the order of the draws.  Together the trials draw every crystal mode
# pair, multimode list, shift and phase.
PINNED_MIXED_DRAWS = {
    (0, 2): (
        Crystal(ModeLabel("a", 1), ModeLabel("t", 0), g=0.1),
        Relabel("a", "t"),
        Crystal(ModeLabel("c", 1), ModeLabel("t", 1), g=0.1),
        MultimodeCrystal("a", "t", modes=(0, 1), g=0.1),
        MultimodeCrystal("a", "c", modes=(0, 1, 2), g=0.1),
        PhaseShifter("b", -1.5707963267948966),
    ),
    (0, 46): (
        Relabel("b", "a"),
        PhaseShifter("b", 1.5707963267948966),
        ModeShifter("b", -1),
        MultimodeCrystal("a", "t", modes=(0, 1, 2, 3), g=0.1),
        PhaseShifter("a", 3.141592653589793),
        Crystal(ModeLabel("b", 0), ModeLabel("c", 0), g=0.1),
    ),
    (0, 51): (
        ModeShifter("c", 1),
        ModeShifter("a", 1),
        Crystal(ModeLabel("a", 0), ModeLabel("c", 1), g=0.1),
        Relabel("b", "t"),
        Relabel("t", "b"),
    ),
    (7, 12): (
        Crystal(ModeLabel("b", 0), ModeLabel("c", 0), g=0.1),
        ModeShifter("c", -1),
        PhaseShifter("t", 1.5707963267948966),
        Relabel("c", "t"),
        Crystal(ModeLabel("b", 1), ModeLabel("t", 0), g=0.1),
        PhaseShifter("t", 1.5707963267948966),
    ),
}


@pytest.mark.parametrize("seed, trial", sorted(PINNED_MIXED_DRAWS))
def test_random_setup_draws_are_pinned(seed, trial):
    exp = random_setup(replace(MIXED_CONFIG, seed=seed), trial)
    assert exp.elements == PINNED_MIXED_DRAWS[seed, trial]
    assert exp.detectors == ("t", "a", "b", "c")
    assert exp.expansion_order == 2


def test_sampler_is_deterministic_per_trial():
    config = pol_config()
    one = [random_setup(config, t) for t in range(20)]
    two = [random_setup(config, t) for t in range(20)]
    assert one == two


def test_evaluate_two_matching_layout_scores_one():
    exp = load_experiment("found_ghz4_polarization.exp")
    assert evaluate(exp, FidelityTarget(ghz_target(4, 2))) == pytest.approx(1.0)


def test_evaluate_empty_experiment_scores_zero():
    exp = Experiment(elements=(), detectors=("a", "b"))
    assert evaluate(exp, FidelityTarget(ghz_target(2, 2, paths=("a", "b")))) == 0.0


def test_evaluate_srv_target():
    exp = Experiment(
        elements=(
            MultimodeCrystal("t", "a", modes=(0, 1, 2, 3), g=0.1),
            MultimodeCrystal("b", "c", modes=(0, 1), g=0.1),
        ),
        detectors=("t", "a", "b", "c"),
    )
    target = SrvTarget(parties=("a", "b", "c"), ranks=(4, 2, 2))
    assert evaluate(exp, target) == 1.0
    assert evaluate(exp, SrvTarget(parties=("a", "b", "c"), ranks=(3, 2, 2))) == 0.0


def test_search_finds_two_matching_layouts():
    hits = search(pol_config())
    assert hits
    assert [h.trial_index for h in hits[:2]] == [147, 790]
    for hit in hits:
        assert hit.score == pytest.approx(1.0)
        assert evaluate(hit.experiment, pol_config().target) >= 0.999


def test_search_is_deterministic_across_runs():
    one = search(pol_config(budget=1500))
    two = search(pol_config(budget=1500))
    assert [h.trial_index for h in one] == [h.trial_index for h in two]
    assert [h.experiment for h in one] == [h.experiment for h in two]


def test_search_hits_are_budget_prefix_monotone():
    small = search(pol_config(budget=800))
    large = search(pol_config(budget=3000))
    assert [h.trial_index for h in large[: len(small)]] == [h.trial_index for h in small]


def test_search_workers_do_not_change_results():
    serial = search(pol_config(budget=1200), workers=1)
    parallel = search(pol_config(budget=1200), workers=4)
    assert [h.trial_index for h in serial] == [h.trial_index for h in parallel]
    assert [h.experiment for h in serial] == [h.experiment for h in parallel]


def test_search_with_srv_target_finds_asymmetric_layouts():
    pool = ElementPool(paths=("t", "a", "b", "c"), kinds=("multimode",))
    config = SearchConfig(
        pool=pool,
        detectors=("t", "a", "b", "c"),
        target=SrvTarget(parties=("a", "b", "c"), ranks=(4, 2, 2)),
        max_elements=2,
        budget=2000,
        seed=7,
    )
    hits = search(config)
    assert hits
    for hit in hits[:3]:
        assert evaluate(hit.experiment, config.target) == 1.0


def test_forced_single_trial_hit():
    # Seed 20240817, trial 147 samples a valid two-matching layout; with
    # budget 1 and the stream shifted there, the search returns exactly it.
    config = pol_config(seed=20240817, budget=148)
    hits = search(config)
    assert [h.trial_index for h in hits] == [147]


def test_a_negative_seed_is_rejected_up_front():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        pol_config(seed=-1)


def test_a_repeated_party_is_rejected():
    with pytest.raises(ValueError, match="parties must be distinct"):
        SrvTarget(parties=("a", "a"), ranks=(2, 2))


# -- the per-trial streams ---------------------------------------------------
# The search draws with ``TrialRng``.  numpy's ``Generator`` is the oracle
# here and only here: ``TrialRng`` must make its draws, one for one.


def reference_rng(seed, trial):
    """Trial ``trial``'s stream as the search promises it, built with numpy."""
    return np.random.default_rng(np.random.SeedSequence((seed, trial)))


# Entropy lengths SeedSequence treats apart: 0 is the one word [0], and
# from 2**96 on a seed takes four words or more, which with the trial's
# word overflow the four-word pool.
EDGES = (0, 2**32 - 1, 2**32, 2**96, 2**128 + 1)

# ``integers(k)`` rejects a 32-bit draw whose low product word falls below
# ``(2**32 - k) % k``.  For this bound that is 2**30 - 1, so about one draw
# in four is rejected and drawn again.
REJECTING = 3 * 2**30 + 1

# Bounds whose draws show the raw 32-bit words (2**32), the rejection loop
# and small bounds; several bounds in a row use both halves of a 64-bit word.
PROBE = (2**32, REJECTING, 2, 2**32 - 1, 7, 1, 5, REJECTING, 3)


def assert_same_stream(rng, reference):
    """The same PCG64 state, then the same draws."""
    state = reference.bit_generator.state["state"]
    assert (rng._state, rng._inc) == (state["state"], state["inc"])
    assert [rng.index(k) for k in PROBE] == [int(reference.integers(k)) for k in PROBE]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.one_of(st.sampled_from(EDGES), st.integers(0, 2**160)),
    start=st.one_of(st.sampled_from(EDGES), st.integers(2**32 - 60, 2**32), st.integers(0, 2**70)),
    length=st.integers(1, 60),
)
@example(seed=0, start=0, length=1)
@example(seed=2**32 - 1, start=2**32 - 30, length=60)
@example(seed=2**96, start=2**64 - 2, length=4)
@example(seed=2**160, start=2**128 + 1, length=3)
def test_trial_streams_are_the_seed_sequence_streams(seed, start, length):
    rngs = list(_trial_rngs(seed, start, start + length))
    assert len(rngs) == length
    for trial, rng in zip(range(start, start + length), rngs):
        assert_same_stream(rng, reference_rng(seed, trial))
    assert_same_stream(_trial_rng(seed, start), reference_rng(seed, start))


def test_trial_streams_run_on_across_seed_chunks():
    chunk = search_module._SEED_CHUNK
    seed, start = 2**96 + 20240817, 2**32 - chunk // 2
    rngs = list(_trial_rngs(seed, start, start + chunk + 7))
    assert len(rngs) == chunk + 7
    for trial, rng in enumerate(rngs, start):
        assert_same_stream(rng, reference_rng(seed, trial))


@pytest.mark.parametrize(
    "config, start, stop",
    [(pol_config(), 700, 2400), (pol_config(), 1, 150), (MIXED_CONFIG, 555, 1000)],
    ids=["ghz4-across-chunks", "ghz4-from-1", "mixed"],
)
def test_a_block_draws_what_its_trials_draw_in_a_block_from_0(monkeypatch, config, start, stop):
    draw = search_module._draw
    keys = []

    def recording_draw(rng, config, blocks):
        keys.append(draw(rng, config, blocks))
        return keys[-1]

    monkeypatch.setattr(search_module, "_draw", recording_draw)
    hits = _run_span(config, start, stop)[0]
    block_keys = keys[:]
    keys.clear()
    whole = _run_span(config, 0, stop)[0]
    assert block_keys == keys[start:]
    assert hits
    assert as_tuples(hits) == [hit for hit in as_tuples(whole) if hit[0] >= start]


class CountingRng(TrialRng):
    """A ``TrialRng`` that counts its 32-bit draws and its 64-bit outputs."""

    __slots__ = ("words", "outputs")

    def __init__(self, seed, trial):
        super().__init__(*search_module._seed_words(seed, trial, trial + 1).tolist()[0])
        self.words = self.outputs = 0

    def _next32(self):
        self.words += 1
        self.outputs += self._spare is None
        return super()._next32()


@settings(max_examples=80, deadline=None)
@given(
    seed=st.one_of(st.sampled_from(EDGES), st.integers(0, 2**64)),
    trial=st.integers(0, 2**40),
    bounds=st.lists(
        st.one_of(st.sampled_from((1, 2, 3, 5, REJECTING, 2**32 - 1, 2**32)), st.integers(1, 2**32)),
        min_size=1,
        max_size=40,
    ),
)
@example(seed=0, trial=0, bounds=[REJECTING] * 40)
def test_bounded_draws_are_numpys(seed, trial, bounds):
    rng, reference = _trial_rng(seed, trial), reference_rng(seed, trial)
    assert [rng.index(k) for k in bounds] == [int(reference.integers(k)) for k in bounds]
    # The stream stands where numpy's does, spare upper half included.
    assert [rng.index(2**32) for _ in range(3)] == reference.integers(2**32, size=3).tolist()


@pytest.mark.parametrize("seed", [0, 7, 20240817])
def test_the_rejection_loop_and_the_spare_half_both_run(seed):
    rng, reference = CountingRng(seed, 5), reference_rng(seed, 5)
    drawn = [rng.index(REJECTING) for _ in range(40)] + [rng.index(6) for _ in range(3)]
    assert drawn == [int(reference.integers(REJECTING)) for _ in range(40)] + reference.integers(6, size=3).tolist()
    # More 32-bit words than values: some were rejected.  Every second
    # word is the spare upper half of a 64-bit output.
    assert rng.words > len(drawn)
    assert rng.outputs == (rng.words + 1) // 2


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_two_of_n_is_choice_without_replacement(n):
    collisions = swaps = 0
    for trial in range(300):
        rng, reference = _trial_rng(7, trial), reference_rng(7, trial)
        assert rng.two_of(n) == tuple(reference.choice(n, 2, replace=False).tolist())
        # The same draws, one at a time: Floyd's two, then the swap.
        replay = reference_rng(7, trial)
        first, second, swap = (int(replay.integers(k)) for k in (n - 1, n, 2))
        collisions += second == first
        swaps += swap == 0
        assert_same_stream(rng, reference)
    assert collisions and swaps


@pytest.mark.parametrize("seed", [0, 7, 20240817])
def test_a_one_value_draw_leaves_the_stream_alone(seed):
    # ``TrialRng.index(1)`` draws nothing; that keeps the streams only
    # because numpy's ``integers(1)`` draws nothing either.
    rng = reference_rng(seed, 3)
    rng.integers(5)
    before = rng.bit_generator.state
    assert rng.integers(1) == 0
    assert rng.bit_generator.state == before


def numpy_draw(rng, config, blocks):
    """The draw as the search made it on numpy's ``Generator``: an independent copy."""
    pool = config.pool
    n, multimode, shift, phase, relabel = blocks
    modes = len(pool.crystal_modes)

    def index(k):
        return int(rng.integers(k)) if k > 1 else 0

    def unordered_pair():
        i, j = rng.choice(n, size=2, replace=False).tolist()
        return i * n + j if i < j else j * n + i

    key = []
    for _ in range(int(rng.integers(1, config.max_elements + 1))):
        kind = pool.kinds[index(len(pool.kinds))]
        if kind == "crystal":
            key.append(unordered_pair() * modes + index(modes))
        elif kind == "multimode":
            lists = len(search_module.MULTIMODE_LISTS)
            key.append(multimode + unordered_pair() * lists + index(lists))
        elif kind == "shift":
            deltas = len(search_module.SHIFT_DELTAS)
            key.append(shift + index(n) * deltas + index(deltas))
        elif kind == "phase":
            phases = len(search_module.PHASE_VALUES)
            key.append(phase + index(n) * phases + index(phases))
        else:  # relabel
            source, target = rng.choice(n, size=2, replace=False).tolist()
            key.append(relabel + source * n + target)
    return tuple(key)


@pytest.mark.parametrize("seed", [0, 7, 20240817, 2**40 + 3, 2**100 + 5])
@pytest.mark.parametrize("config", [pol_config(), MIXED_CONFIG], ids=["ghz4", "mixed"])
def test_draw_is_the_numpy_draw_key_for_key(config, seed):
    blocks = search_module._blocks(config.pool)
    keys = [search_module._draw(rng, config, blocks) for rng in _trial_rngs(seed, 0, 1000)]
    assert keys == [numpy_draw(reference_rng(seed, trial), config, blocks) for trial in range(1000)]
    assert len(set(keys)) > 100


def test_a_serial_search_never_imports_numpy_random():
    code = (
        "import sys\n"
        "from spdcsim.cli import main\n"
        "hits = main(['search', 'ghz:4:2', '--budget', '200', '--seed', '20240817'])\n"
        "misses = main(['search', 'srv:4,2,2', '--paths', 't,a,b,c', '--parties', 'a,b,c',\n"
        "               '--pool', 'crystal,multimode,shift,phase,relabel', '--budget', '300'])\n"
        "print(hits, misses, 'numpy.random' in sys.modules)\n"
    )
    src = Path(search_module.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert "hit trial=147" in result.stdout
    assert result.stdout.splitlines()[-1] == "0 1 False"


# -- the score cache ---------------------------------------------------------


def uncached_hits(config):
    """The search without a cache, bulk seeding or ``TrialRng``: draw, build and score every trial."""
    blocks = search_module._blocks(config.pool)
    hits = []
    for trial in range(config.budget):
        key = numpy_draw(reference_rng(config.seed, trial), config, blocks)
        exp = search_module._build(key, config, {})
        score = evaluate(exp, config.target)
        if _accepts(config.target, score):
            hits.append((trial, exp, repr(score)))
    return hits


def as_tuples(hits):
    return [(h.trial_index, h.experiment, repr(h.score)) for h in hits]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("config", [pol_config(), MIXED_CONFIG], ids=["ghz4", "mixed"])
def test_cached_search_equals_the_uncached_loop(config, workers):
    reference = uncached_hits(config)
    assert reference
    assert as_tuples(search(config, workers=workers)) == reference


def test_serial_search_scores_each_distinct_setup_once(monkeypatch):
    config = pol_config(budget=1500)
    scored = []

    def counting_evaluate(exp, target):
        scored.append(exp.elements)
        return evaluate(exp, target)

    monkeypatch.setattr(search_module, "evaluate", counting_evaluate)
    hits, stats = search_with_stats(config)
    drawn = {random_setup(config, trial).elements for trial in range(config.budget)}
    assert len(scored) == len(set(scored)) == len(drawn) == stats.evaluated
    assert set(scored) == drawn
    assert stats.evaluated + stats.cache_hits == stats.trials == config.budget
    assert stats.cache_hits > 0
    assert sum(stats.histogram) == stats.evaluated
    assert stats.accepted == len(hits)


def test_parallel_stats_are_the_serial_stats():
    # Each span keeps its own cache, but the stats count the union of what
    # the spans scored, so only the times depend on the worker count.
    timing = ("draw_s", "score_s", "trials_per_s")
    runs = []
    for workers in (1, 3):
        hits, stats = search_with_stats(MIXED_CONFIG, workers=workers)
        record = {name: value for name, value in stats.record().items() if name not in timing}
        runs.append((as_tuples(hits), record))
    (serial_hits, serial), (parallel_hits, parallel) = runs
    assert serial_hits and parallel_hits == serial_hits
    assert 0 < serial["screened"] < serial["evaluated"] < serial["trials"]
    assert parallel == serial


def test_equal_elements_are_shared_within_a_search():
    hits = search(pol_config())
    seen = {}
    for hit in hits:
        for element in hit.experiment.elements:
            assert seen.setdefault(element, element) is element


@pytest.mark.parametrize("workers", [1, 2])
def test_no_score_survives_into_the_next_search(workers):
    # Same seed and pool, so the two searches draw the same keys; a score
    # cached under the first target would turn up as a hit of the second.
    ghz = pol_config(budget=1500)
    product = pol_config(
        budget=1500,
        target=FidelityTarget(StateVector.from_occupations({ModeLabel(p, 0): 1 for p in "abcd"})),
    )
    first = as_tuples(search(ghz, workers=workers))
    second = as_tuples(search(product, workers=workers))
    assert first == uncached_hits(ghz)
    assert second == uncached_hits(product)
    assert first and second and first != second

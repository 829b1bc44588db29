"""The selection and scores on decoded occupation tuples: the reference
that the packed-key code in ``spdcsim`` must equal bit for bit.

``matches`` and ``post_select_pattern`` select terms by their per-path
photon counts, ``fidelity`` takes ``<target|state>`` through
``StateVector.inner``, and ``schmidt_rank_vector`` ranks each party from
cells of occupation tuples.  Each reads only ``state.terms``, so it
shares no key layout, key rule or encoding with the code it checks.
"""

from spdcsim.analysis import SchmidtRankVector, schmidt_rank
from spdcsim.experiment import PostSelectionResult
from spdcsim.fock import StateVector


def matches(occ, pattern):
    """Whether ``occ`` holds exactly ``pattern[path]`` photons in each path
    of ``pattern`` and none in any other path."""
    counts = {}
    for label, n in occ:
        counts[label.path] = counts.get(label.path, 0) + n
    return all(counts.get(path, 0) == want for path, want in pattern.items()) and all(
        path in pattern for path in counts
    )


def post_select_pattern(state, pattern):
    """The normalized terms of ``state`` that match ``pattern``, with their
    squared norm before normalization as the success weight."""
    selected = {occ: amp for occ, amp in state.terms.items() if matches(occ, pattern)}
    weight = sum(abs(a) ** 2 for a in selected.values())
    return PostSelectionResult(StateVector(selected).normalized(), weight)


def fidelity(state, target):
    """Squared overlap ``|<target|state>|^2`` after normalizing both."""
    if not state.terms or not target.terms:
        raise ValueError("fidelity of the zero state is undefined")
    overlap = target.normalized().inner(state.normalized())
    return min(abs(overlap) ** 2, 1.0)


def schmidt_rank_vector(state, parties):
    """Each party's Schmidt rank against the rest, from the cells of the
    party's ``(mode, count)`` pairs and the rest of the occupation."""
    if not state.terms:
        raise ValueError("cannot rank the zero state")
    parties = list(parties)
    psi = state.normalized()
    check_party_occupancy(psi, parties)
    ranks = []
    for party in parties:
        cells = (
            (
                tuple((label.mode, n) for label, n in occ if label.path == party),
                tuple(item for item in occ if item[0].path != party),
                amp,
            )
            for occ, amp in psi.terms.items()
        )
        ranks.append(schmidt_rank(cells))
    return SchmidtRankVector(tuple(parties), tuple(ranks))


def check_party_occupancy(state, parties):
    """Raise ``ValueError`` where a party holds no photon, or a count other
    than in the earlier terms."""
    expected = {}
    for occ, _ in state.terms.items():
        counts = {p: 0 for p in parties}
        for label, n in occ:
            if label.path in counts:
                counts[label.path] += n
        for party, n in counts.items():
            if n == 0:
                raise ValueError(f"party path {party!r} holds no photon in some term")
            if party in expected and expected[party] != n:
                raise ValueError(f"party path {party!r} has varying photon number across terms")
            expected[party] = n

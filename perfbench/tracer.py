"""Timing wrappers installed from outside around spdcsim's public names.

Calls at element-apply level and above (dsl, experiment, elements,
analysis, search) are recorded as spans: name, start, end, parent span
and pass id.  The fock primitives below them are only aggregated as
counters, because they run once per term or per state operation and a
span each would swamp the trace.  Self time is a call's duration minus
the time covered by the wrapped calls nested in it.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

import spdcsim.fock
from spdcsim import analysis, dsl, elements, experiment
from spdcsim.fock import StateVector

search = importlib.import_module("spdcsim.search")

#: Fock primitives, as named in the metrics.
FOCK = ("create", "annihilate", "add", "scale", "init", "make_occupation", "truncate_pairs")
#: Primitives whose terms count toward ``fock.ns_per_term``.
STATE_OPS = ("create", "annihilate", "add", "scale", "truncate_pairs")
KINDS = {
    "Crystal": "crystal",
    "MultimodeCrystal": "multimode",
    "ModeShifter": "shift",
    "PhaseShifter": "phase",
    "Misalignment": "misalign",
    "Relabel": "relabel",
}
ANALYSIS = ("fidelity", "schmidt_rank_vector", "efficiency_simulated")


class Stat:
    __slots__ = ("calls", "terms", "terms_out", "self_s", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.terms = 0
        self.terms_out = 0
        self.self_s = 0.0
        self.durations: list[float] = []


class Tracer:
    """Spans and counters of one pass; wrappers record only while ``enabled``."""

    def __init__(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.enabled = False
        self.stats: dict[str, Stat] = {}
        self.spans: list[list] = []  # [name, start, end, parent, pass_id, self_s]
        self.distinct: set = set()
        self._open: list[list[float]] = []  # child time of each open call
        self._open_spans: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, func, name, *, terms=None, terms_out=None, span=True, keep=False, distinct=None):
        """Timing wrapper for ``func``; ``name`` may be a function of the args."""
        tracer = self
        perf = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            key = name(args) if callable(name) else name
            frame = [0.0]
            tracer._open.append(frame)
            if span:
                parent = tracer._open_spans[-1] if tracer._open_spans else None
                tracer._open_spans.append(len(tracer.spans))
                record = [key, 0.0, 0.0, parent, tracer.pass_id, 0.0]
                tracer.spans.append(record)
            start = perf()
            try:
                result = func(*args, **kwargs)
            finally:
                duration = perf() - start
                tracer._open.pop()
                if tracer._open:
                    tracer._open[-1][0] += duration
                stat = tracer.stats.get(key)
                if stat is None:
                    stat = tracer.stats[key] = Stat()
                stat.calls += 1
                stat.self_s += duration - frame[0]
                if keep:
                    stat.durations.append(duration)
                if span:
                    tracer._open_spans.pop()
                    record[1], record[2], record[5] = start, start + duration, duration - frame[0]
            if terms is not None:
                stat.terms += terms(args)
            if terms_out is not None:
                stat.terms_out += terms_out(result)
            if distinct is not None:
                tracer.distinct.add(distinct(args))
            return result

        return wrapper

    def install(self) -> None:
        """Patch every spdcsim module attribute bound to a traced function."""

        def state_terms(args):
            return len(args[0].terms)

        def added_terms(args):
            return len(args[0].terms) + len(getattr(args[1], "terms", ()))

        def init_terms(args):
            return len(args[1]) if len(args) > 1 and args[1] else 0

        def result_terms(result):
            return len(result.terms)

        for attr, metric, count in (
            ("create", "create", state_terms),
            ("annihilate", "annihilate", state_terms),
            ("__add__", "add", added_terms),
            ("__mul__", "scale", state_terms),
            ("__init__", "init", init_terms),
            ("truncate_pairs", "truncate_pairs", state_terms),
        ):
            self._patch_attr(StateVector, attr, self.wrap(getattr(StateVector, attr), f"fock.{metric}", terms=count, span=False))
        # ``__rmul__`` is the same function as ``__mul__``.
        self._patch_attr(StateVector, "__rmul__", StateVector.__mul__)
        self._patch_function(
            spdcsim.fock.make_occupation,
            self.wrap(spdcsim.fock.make_occupation, "fock.make_occupation", terms=lambda a: len(a[0]), span=False),
        )
        self._patch_function(
            elements.apply_element,
            self.wrap(
                elements.apply_element,
                lambda a: "elements." + KINDS[type(a[1]).__name__],
                terms=state_terms,
                terms_out=result_terms,
            ),
        )
        self._patch_function(experiment.run, self.wrap(experiment.run, "experiment.run", terms_out=result_terms))
        self._patch_function(
            experiment.post_select,
            self.wrap(experiment.post_select, "experiment.post_select", terms=state_terms),
        )
        for fname in ANALYSIS:
            func = getattr(analysis, fname)
            self._patch_function(func, self.wrap(func, f"analysis.{fname}"))
        self._patch_function(dsl.parse, self.wrap(dsl.parse, "dsl.parse"))
        self._patch_function(search.search, self.wrap(search.search, "search.search"))
        self._patch_function(search.random_setup, self.wrap(search.random_setup, "search.random_setup"))
        self._patch_function(
            search.evaluate,
            self.wrap(search.evaluate, "search.evaluate", keep=True, distinct=lambda a: a[0].elements),
        )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch_attr(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, func, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "spdcsim" or module_name.startswith("spdcsim.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._patch_attr(module, attr, wrapper)

    # -- reporting -----------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            for name, start, end, parent, pass_id, self_s in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "pass": pass_id, "self_s": self_s}
                    )
                    + "\n"
                )

    def metrics(self, *, trials: int, hits: int) -> dict[str, float]:
        """Per-layer metrics; layers the pass did not reach read zero."""
        stat = self.stats.get
        empty = Stat()
        out: dict[str, float] = {}
        for metric in FOCK:
            s = stat(f"fock.{metric}", empty)
            out[f"fock.{metric}.calls"] = s.calls
            out[f"fock.{metric}.terms"] = s.terms
            out[f"fock.{metric}.self_s"] = s.self_s
        fock_s = sum(stat(f"fock.{m}", empty).self_s for m in FOCK)
        fock_terms = sum(stat(f"fock.{m}", empty).terms for m in STATE_OPS)
        out["fock.ns_per_term"] = fock_s / fock_terms * 1e9 if fock_terms else 0.0
        for kind in KINDS.values():
            s = stat(f"elements.{kind}", empty)
            out[f"elements.{kind}.calls"] = s.calls
            out[f"elements.{kind}.terms_in"] = s.terms
            out[f"elements.{kind}.terms_out"] = s.terms_out
            out[f"elements.{kind}.self_s"] = s.self_s
        run = stat("experiment.run", empty)
        selection = stat("experiment.post_select", empty)
        out["experiment.run.calls"] = run.calls
        out["experiment.run.self_s"] = run.self_s
        out["experiment.run.terms_out"] = run.terms_out
        out["experiment.post_select.calls"] = selection.calls
        out["experiment.post_select.terms_in"] = selection.terms
        out["experiment.post_select.self_s"] = selection.self_s
        for fname in ANALYSIS:
            s = stat(f"analysis.{fname}", empty)
            out[f"analysis.{fname}.calls"] = s.calls
            out[f"analysis.{fname}.self_s"] = s.self_s
        evaluate = stat("search.evaluate", empty)
        latencies = sorted(evaluate.durations)
        out["search.trials"] = trials
        out["search.self_s"] = stat("search.search", empty).self_s
        out["search.random_setup.self_s"] = stat("search.random_setup", empty).self_s
        out["search.evaluate.calls"] = evaluate.calls
        out["search.evaluate.p50_us"] = _percentile(latencies, 0.50) * 1e6
        out["search.evaluate.p99_us"] = _percentile(latencies, 0.99) * 1e6
        out["search.distinct_frac"] = len(self.distinct) / trials if trials else 0.0
        out["search.accept_frac"] = hits / trials if trials else 0.0
        parse = stat("dsl.parse", empty)
        out["dsl.parse.calls"] = parse.calls
        out["dsl.parse.self_s"] = parse.self_s
        return out


def _percentile(ordered: list[float], q: float) -> float:
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[round(q * 100) - 1]

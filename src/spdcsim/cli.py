"""Command-line interface.

Machine-readable results go to stdout; diagnostics go to stderr.  Exit
codes: 0 success, 1 failed check or empty result, 2 bad input.  Every
bad input raises ``_BadInput``, which ``main`` reports; argparse reports
its own.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from . import analysis, coherence, dsl
from .experiment import Experiment, PostSelectionResult, post_select, run
from .fock import StateVector, parse_state
from .search import ElementPool, FidelityTarget, SearchConfig, SrvTarget, Target, search_with_stats


class _BadInput(Exception):
    """Bad input, said in the message; ``main`` prints it and exits 2."""


@contextmanager
def _bad_input(what: str = ""):
    """Report an ``OSError`` or ``ValueError`` in the block as bad input,
    its text after ``what``."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise _BadInput(f"{what}: {exc}" if what else str(exc)) from None


def _read_experiment(path: str) -> Experiment:
    with _bad_input(f"cannot read {path}"):
        text = Path(path).read_text()
    try:
        return dsl.parse(text)
    except dsl.ExperimentParseError as exc:
        raise _BadInput("\n".join(f"{path}:{issue}" for issue in exc.issues)) from None


def _checked(convert, ok, rule: str):
    """``argparse`` type: ``convert(text)``, rejected unless ``ok``."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_POSITIVE_INT = _checked(int, lambda value: value >= 1, ">= 1")
_NON_NEGATIVE_INT = _checked(int, lambda value: value >= 0, ">= 0")
_UNIT_INTERVAL = _checked(float, lambda value: 0.0 < value <= 1.0, "in (0, 1]")


def _print_state(state: StateVector, as_json: bool) -> None:
    if as_json:
        for occ, amp in sorted(state.terms.items()):
            record = {
                "re": amp.real,
                "im": amp.imag,
                "occupations": [
                    {"path": label.path, "mode": label.mode, "count": n}
                    for label, n in occ
                ],
            }
            print(json.dumps(record))
    else:
        sys.stdout.write(state.serialize())


def _target_state(spec: str, paths: tuple[str, ...]) -> StateVector:
    """The target ``spec`` on the detector ``paths``: ``ghz:``/``w:``
    targets are built on them; a state file must sit on them."""
    with _bad_input(f"bad target {spec!r}"):
        kind, _, sizes = spec.partition(":")
        if kind in ("ghz", "w"):
            form = "ghz:<n>:<d>" if kind == "ghz" else "w:<n>"
            try:
                numbers = [int(text) for text in sizes.split(":")]
            except ValueError:
                numbers = []
            if len(numbers) != form.count(":"):
                raise ValueError(f"expected {form} with integers")
            if kind == "ghz":
                return analysis.ghz_target(*numbers, paths=paths)
            return analysis.w_target(*numbers, paths=paths)
        path = Path(spec)
        if not path.exists():
            raise ValueError("not ghz:<n>:<d>, w:<n>, or a state file")
        try:
            text = path.read_text()
        except OSError as exc:
            raise ValueError(f"cannot read it: {exc}") from None
        state = parse_state(text)
        if state.paths() != set(paths):
            raise ValueError(f"its paths {','.join(sorted(state.paths()))} are not the detectors {','.join(paths)}")
        return state


def _names(option: str, text: str | None, allowed: tuple[str, ...], where: str) -> tuple[str, ...]:
    """The comma-separated names of ``option``, by default all of
    ``allowed``: each one of ``allowed`` (``where``), none twice."""
    if not text:
        return allowed
    names = tuple(text.split(","))
    for i, name in enumerate(names):
        if name not in allowed:
            raise _BadInput(f"bad {option} {text!r}: {name!r} is not {where}")
        if name in names[:i]:
            raise _BadInput(f"bad {option} {text!r}: {name!r} appears twice")
    return names


def _selected(exp: Experiment) -> PostSelectionResult:
    """The post-selected run of ``exp``; a zero state is an empty result."""
    selected = post_select(run(exp), exp.detectors)
    if selected.state.is_zero():
        raise ValueError("post-selected component is zero")
    return selected


# -- subcommands ---------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    exp = _read_experiment(args.file)
    if args.order is not None:
        exp = replace(exp, expansion_order=args.order)
    if args.no_postselect:
        _print_state(run(exp), args.json)
        return 0
    selected = _selected(exp)
    _print_state(selected.state, args.json)
    print(f"success_weight {selected.success_weight!r}", file=sys.stderr)
    return 0


def _cmd_fidelity(args: argparse.Namespace) -> int:
    exp = _read_experiment(args.file)
    target = _target_state(args.target, exp.detectors)
    print(repr(analysis.fidelity(_selected(exp).state, target)))
    return 0


def _cmd_srv(args: argparse.Namespace) -> int:
    exp = _read_experiment(args.file)
    parties = _names("--parties", args.parties, exp.detectors, "a detector path")
    ranks = analysis.schmidt_rank_vector(_selected(exp).state, parties).ranks
    if args.parties is None:
        # Separable spectator paths (for example a trigger) rank 1; they
        # are omitted unless everything is separable.
        nontrivial = tuple(r for r in ranks if r > 1)
        ranks = nontrivial if nontrivial else ranks
    print(" ".join(str(r) for r in sorted(ranks, reverse=True)))
    return 0


def _cmd_efficiency(args: argparse.Namespace) -> int:
    with _bad_input(f"bad n={args.n} d={args.d}"):
        report = analysis.efficiency_report(args.n, args.d)
        layout = analysis.ghz_layout(args.n, args.d) if args.simulate == "" else None
    if args.simulate is not None:
        report = analysis.efficiency_report(args.n, args.d, simulate=layout or _read_experiment(args.simulate))
    print(f"formula {report.formula_value}")
    if report.simulated_value is not None:
        print(f"simulated {report.simulated_value}")
        if report.discrepancy_note:
            print(f"note: {report.discrepancy_note}", file=sys.stderr)
    return 0


def _cmd_layout(args: argparse.Namespace) -> int:
    with _bad_input(f"bad n={args.n} d={args.d}"):
        exp = analysis.ghz_layout(args.n, args.d)
    sys.stdout.write(dsl.serialize(exp))
    return 0


def _cmd_build2(args: argparse.Namespace) -> int:
    with _bad_input("bad coefficient list"):
        coefficients = [complex(token) for token in args.coefficients.split(",")]
    with _bad_input():
        exp = analysis.two_photon_builder(coefficients)
    sys.stdout.write(dsl.serialize(exp))
    return 0


def _cmd_coherence(args: argparse.Namespace) -> int:
    with _bad_input():
        spec = coherence.parse_spec_file(Path(args.file).read_text())
    report = coherence.check_coherence(spec)
    for constraint in report.constraints:
        status = "ok" if constraint.satisfied else "VIOLATED"
        print(
            f"{constraint.name:10s} diff={constraint.difference: .6e} "
            f"budget={constraint.budget:.6e} margin={constraint.margin: .4f} {status}"
        )
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _cmd_search(args: argparse.Namespace) -> int:
    # The pool judges the path names: a hit file must be able to write them.
    with _bad_input(f"bad --pool {args.pool!r} or --paths {args.paths!r}"):
        pool = ElementPool(paths=tuple(args.paths.split(",")), kinds=tuple(args.pool.split(",")))
    detectors = _names("--detectors", args.detectors, pool.paths, f"in --paths {args.paths!r}")
    parties = _names("--parties", args.parties, detectors, "a detector path")
    if args.target.startswith("srv:"):
        with _bad_input(f"bad target {args.target!r}"):
            ranks = tuple(int(r) for r in args.target[len("srv:"):].split(","))
            target: Target = SrvTarget(parties=parties, ranks=ranks)
    else:
        target = FidelityTarget(_target_state(args.target, detectors), threshold=args.threshold)
    config = SearchConfig(
        pool=pool,
        detectors=detectors,
        target=target,
        max_elements=args.max_elements,
        budget=args.budget,
        seed=args.seed,
    )
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        with _bad_input(f"bad --out {args.out!r}"):
            out_dir.mkdir(parents=True, exist_ok=True)
    # The pool starts all its processes at once; hits and stats do not
    # depend on the worker count, so more workers than cores buy nothing.
    workers = min(args.workers, os.cpu_count() or 1)
    hits, stats = search_with_stats(config, workers=workers)
    for hit in hits:
        print(f"hit trial={hit.trial_index} score={hit.score!r}")
        if out_dir is not None:
            name = out_dir / f"hit_{hit.trial_index:06d}.exp"
            name.write_text(dsl.serialize(hit.experiment))
    print(f"{len(hits)} hit(s) in {config.budget} trials", file=sys.stderr)
    if args.stats:
        print(json.dumps(stats.record()), file=sys.stderr)
    return 0 if hits else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdcsim",
        description="Simulate multi-crystal photon-pair experiments and analyze their states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="simulate an experiment file and print the state")
    p.add_argument("file")
    p.add_argument("--order", type=_POSITIVE_INT, default=None, help="override the expansion order")
    p.add_argument("--no-postselect", action="store_true", help="print the full state")
    p.add_argument("--json", action="store_true", help="one JSON object per term")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("fidelity", help="fidelity of the post-selected state with a target")
    p.add_argument("file")
    p.add_argument("--target", required=True, help="ghz:<n>:<d>, w:<n>, or a state file")
    p.set_defaults(func=_cmd_fidelity)

    p = sub.add_parser("srv", help="Schmidt-rank vector of the post-selected state")
    p.add_argument("file")
    p.add_argument("--parties", default=None, help="comma-separated party paths")
    p.set_defaults(func=_cmd_srv)

    p = sub.add_parser("efficiency", help="closed-form and simulated generation efficiency")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.add_argument(
        "--simulate",
        nargs="?",
        const="",
        default=None,
        metavar="FILE",
        help="also simulate (a file, or the generated layout when omitted)",
    )
    p.set_defaults(func=_cmd_efficiency)

    p = sub.add_parser("layout", help="emit a generated layout as experiment text")
    p.add_argument("kind", choices=["ghz"])
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.set_defaults(func=_cmd_layout)

    p = sub.add_parser("build2", help="emit a two-photon chain for given coefficients")
    p.add_argument("coefficients", help="comma-separated complex numbers, e.g. 1,1j,-1,-1j")
    p.set_defaults(func=_cmd_build2)

    p = sub.add_parser("coherence", help="check path-length feasibility from a key=value file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_coherence)

    p = sub.add_parser("search", help="random search for experiments hitting a target")
    p.add_argument("target", help="ghz:<n>:<d>, w:<n>, srv:<r1,r2,...>, or a state file")
    p.add_argument("--budget", type=_POSITIVE_INT, default=10000)
    p.add_argument("--seed", type=_NON_NEGATIVE_INT, default=0)
    p.add_argument("--paths", default="a,b,c,d", help="comma-separated path pool")
    p.add_argument("--detectors", default=None, help="defaults to the path pool")
    p.add_argument("--pool", default="crystal", help="element kinds, comma-separated")
    p.add_argument("--parties", default=None, help="party paths for srv targets")
    p.add_argument("--max-elements", type=_POSITIVE_INT, default=4)
    p.add_argument("--threshold", type=_UNIT_INTERVAL, default=0.999)
    p.add_argument("--workers", type=_POSITIVE_INT, default=1)
    p.add_argument("--out", default=None, help="directory for hit files")
    p.add_argument("--stats", action="store_true", help="one JSON line of search statistics on stderr")
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _BadInput as exc:
        print(exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

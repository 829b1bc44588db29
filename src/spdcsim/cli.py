"""Command-line interface.

Machine-readable results go to stdout; diagnostics go to stderr.  Exit
codes: 0 success, 1 failed check or empty result, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from . import analysis, coherence, dsl
from .experiment import Experiment, post_select, run
from .fock import StateVector, parse_state
from .search import ElementPool, FidelityTarget, SearchConfig, SrvTarget, Target
from .search import search as run_search


def _read_experiment(path: str) -> Experiment:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SystemExit(_usage_error(f"cannot read {path}: {exc}"))
    try:
        return dsl.parse(text)
    except dsl.ExperimentParseError as exc:
        for issue in exc.issues:
            print(f"{path}:{issue}", file=sys.stderr)
        raise SystemExit(2) from None


def _usage_error(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


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


def _target_state(spec: str) -> StateVector:
    kind, _, sizes = spec.partition(":")
    if kind in ("ghz", "w"):
        form = "ghz:<n>:<d>" if kind == "ghz" else "w:<n>"
        try:
            numbers = [int(text) for text in sizes.split(":")]
        except ValueError:
            numbers = []
        if len(numbers) != form.count(":"):
            raise SystemExit(_usage_error(f"bad target {spec!r}: expected {form} with integers"))
        try:
            return analysis.ghz_target(*numbers) if kind == "ghz" else analysis.w_target(*numbers)
        except ValueError as exc:
            raise SystemExit(_usage_error(f"bad target {spec!r}: {exc}"))
    path = Path(spec)
    if path.exists():
        return parse_state(path.read_text())
    raise SystemExit(_usage_error(f"unknown target {spec!r}: use ghz:<n>:<d>, w:<n>, or a state file"))


# -- subcommands ---------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    exp = _read_experiment(args.file)
    if args.order is not None:
        exp = replace(exp, expansion_order=args.order)
    state = run(exp)
    if args.no_postselect:
        _print_state(state, args.json)
        return 0
    selected = post_select(state, exp.detectors)
    if selected.state.is_zero():
        print("post-selected component is zero", file=sys.stderr)
        return 1
    _print_state(selected.state, args.json)
    print(f"success_weight {selected.success_weight!r}", file=sys.stderr)
    return 0


def _cmd_fidelity(args: argparse.Namespace) -> int:
    exp = _read_experiment(args.file)
    selected = post_select(run(exp), exp.detectors)
    if selected.state.is_zero():
        print("post-selected component is zero", file=sys.stderr)
        return 1
    value = analysis.fidelity(selected.state, _target_state(args.target))
    print(repr(value))
    return 0


def _cmd_srv(args: argparse.Namespace) -> int:
    exp = _read_experiment(args.file)
    parties = args.parties.split(",") if args.parties else list(exp.detectors)
    for party in parties:
        if party not in exp.detectors:
            return _usage_error(f"bad --parties {args.parties!r}: {party!r} is not a detector path")
    selected = post_select(run(exp), exp.detectors)
    if selected.state.is_zero():
        print("post-selected component is zero", file=sys.stderr)
        return 1
    srv = analysis.schmidt_rank_vector(selected.state, parties)
    ranks = srv.ranks
    if args.parties is None:
        # Separable spectator paths (for example a trigger) rank 1; they
        # are omitted unless everything is separable.
        nontrivial = tuple(r for r in ranks if r > 1)
        ranks = nontrivial if nontrivial else ranks
    print(" ".join(str(r) for r in sorted(ranks, reverse=True)))
    return 0


def _cmd_efficiency(args: argparse.Namespace) -> int:
    try:
        value = analysis.efficiency_formula(args.n, args.d)
        layout = analysis.ghz_layout(args.n, args.d) if args.simulate == "" else None
    except ValueError as exc:
        return _usage_error(f"bad n={args.n} d={args.d}: {exc}")
    print(f"formula {value}")
    if args.simulate is not None:
        exp = layout or _read_experiment(args.simulate)
        simulated = analysis.efficiency_simulated(exp)
        print(f"simulated {simulated}")
        report = analysis.EfficiencyReport(
            n=args.n,
            d=args.d,
            formula_value=value,
            simulated_value=simulated if isinstance(simulated, Fraction) else None,
        )
        note = report.discrepancy_note
        if note:
            print(f"note: {note}", file=sys.stderr)
    return 0


def _cmd_layout(args: argparse.Namespace) -> int:
    if args.kind != "ghz":
        return _usage_error(f"unknown layout kind {args.kind!r}")
    try:
        exp = analysis.ghz_layout(args.n, args.d)
    except ValueError as exc:
        return _usage_error(f"bad n={args.n} d={args.d}: {exc}")
    sys.stdout.write(dsl.serialize(exp))
    return 0


def _cmd_build2(args: argparse.Namespace) -> int:
    try:
        coefficients = [complex(token) for token in args.coefficients.split(",")]
    except ValueError as exc:
        return _usage_error(f"bad coefficient list: {exc}")
    try:
        exp = analysis.two_photon_builder(coefficients)
    except ValueError as exc:
        return _usage_error(str(exc))
    sys.stdout.write(dsl.serialize(exp))
    return 0


def _cmd_coherence(args: argparse.Namespace) -> int:
    try:
        spec = coherence.parse_spec_file(Path(args.file).read_text())
    except (OSError, ValueError) as exc:
        return _usage_error(str(exc))
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
    paths = tuple(args.paths.split(","))
    try:
        pool = ElementPool(paths=paths, kinds=tuple(args.pool.split(",")))
    except ValueError as exc:
        return _usage_error(f"bad --pool {args.pool!r} or --paths {args.paths!r}: {exc}")
    detectors = tuple(args.detectors.split(",")) if args.detectors else paths
    if args.target.startswith("srv:"):
        parties = tuple(args.parties.split(",")) if args.parties else detectors
        try:
            ranks = tuple(int(r) for r in args.target[len("srv:"):].split(","))
            target: Target = SrvTarget(parties=parties, ranks=ranks)
        except ValueError as exc:
            return _usage_error(f"bad target {args.target!r}: {exc}")
    else:
        target = FidelityTarget(_target_state(args.target), threshold=args.threshold)
    config = SearchConfig(
        pool=pool,
        detectors=detectors,
        target=target,
        max_elements=args.max_elements,
        budget=args.budget,
        seed=args.seed,
    )
    hits = run_search(config, workers=args.workers)
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    for hit in hits:
        print(f"hit trial={hit.trial_index} score={hit.score!r}")
        if out_dir is not None:
            name = out_dir / f"hit_{hit.trial_index:06d}.exp"
            name.write_text(dsl.serialize(hit.experiment))
    print(f"{len(hits)} hit(s) in {config.budget} trials", file=sys.stderr)
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
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None, help="directory for hit files")
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

import json
import math
import os
from dataclasses import replace

import pytest

from spdcsim import dsl
from spdcsim.analysis import ghz_layout, ghz_target
from spdcsim.cli import _print_state, main
from spdcsim.elements import PhaseShifter
from spdcsim.experiment import compile_run, run_keys
from spdcsim.fock import StateVector

from conftest import CORPUS, EXPERIMENTS_DIR


def invoke(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_prints_state_table(capsys):
    code, out, err = invoke(capsys, "run", EXPERIMENTS_DIR / "ghz4_polarization.exp")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 2
    assert all(":" in l for l in lines)
    assert "success_weight" in err


def test_run_json_emits_one_object_per_term(capsys):
    code, out, _ = invoke(
        capsys, "run", EXPERIMENTS_DIR / "ghz4_polarization.exp", "--json"
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines() if line]
    assert len(records) == 2
    assert set(records[0]) == {"re", "im", "occupations"}
    assert records[0]["occupations"][0].keys() == {"path", "mode", "count"}


@pytest.mark.parametrize("path", CORPUS, ids=lambda path: path.stem)
def test_run_without_postselection_prints_the_eagerly_decoded_state(capsys, path):
    exp = dsl.parse(path.read_text())
    elements, layout = compile_run(exp)
    eager = StateVector({layout.decode(key): amp for key, amp in run_keys(exp, elements, layout).items()})
    for as_json in (False, True):
        code, out, _ = invoke(capsys, "run", path, "--no-postselect", *(["--json"] if as_json else []))
        assert code == 0
        _print_state(eager, as_json)
        assert out == capsys.readouterr().out
        assert out.count("\n") == len(eager)


def test_run_reports_parse_errors_with_position(tmp_path, capsys):
    bad = tmp_path / "bad.exp"
    bad.write_text("detectors a b\nmisalign a T=1.5\n")
    code, out, err = invoke(capsys, "run", bad)
    assert code == 2
    assert out == ""
    assert "2:12" in err


def test_fidelity_against_named_target(capsys):
    code, out, _ = invoke(
        capsys,
        "fidelity",
        EXPERIMENTS_DIR / "ghz4_polarization.exp",
        "--target",
        "ghz:4:2",
    )
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("paths", ["a,b,c,d", "p,q,r,s"], ids=["default-paths", "renamed-paths"])
def test_fidelity_target_sits_on_the_detector_paths(tmp_path, capsys, paths):
    layout = tmp_path / "ghz.exp"
    layout.write_text(dsl.serialize(ghz_layout(4, 2, paths=paths.split(","))))
    code, out, _ = invoke(capsys, "fidelity", layout, "--target", "ghz:4:2")
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_against_state_file(tmp_path, capsys):
    target = tmp_path / "target.state"
    amp = 1 / math.sqrt(2)
    target.write_text(
        f"{amp!r} 0.0 : 1*a:0 1*b:0 1*c:0 1*d:0\n{amp!r} 0.0 : 1*a:1 1*b:1 1*c:1 1*d:1\n"
    )
    code, out, _ = invoke(
        capsys,
        "fidelity",
        EXPERIMENTS_DIR / "ghz4_polarization.exp",
        "--target",
        target,
    )
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("paths", ["p,q,r,s", "a,b,c,e"], ids=["renamed-paths", "one-path-off"])
def test_fidelity_rejects_a_state_file_off_the_detectors(tmp_path, capsys, paths):
    target = tmp_path / "target.state"
    target.write_text(ghz_target(4, 2, paths=paths.split(",")).serialize())
    code, out, err = invoke(capsys, "fidelity", EXPERIMENTS_DIR / "ghz4_polarization.exp", "--target", target)
    assert code == 2
    assert out == ""
    assert f"bad target {str(target)!r}" in err
    assert "are not the detectors a,b,c,d" in err


NAN_GHZ_STATE = "nan 0 : 1*a:0 1*b:0 1*c:0 1*d:0\n1 0 : 1*a:1 1*b:1 1*c:1 1*d:1\n"


def test_fidelity_rejects_a_non_finite_amplitude_with_its_line(tmp_path, capsys):
    target = tmp_path / "nan.state"
    target.write_text(NAN_GHZ_STATE)
    code, out, err = invoke(capsys, "fidelity", EXPERIMENTS_DIR / "ghz4_polarization.exp", "--target", target)
    assert code == 2
    assert out == ""
    assert f"bad target {str(target)!r}: line 1: amplitude nan 0 is not finite" in err


def test_fidelity_rejects_an_unreadable_state_file(tmp_path, capsys):
    code, out, err = invoke(capsys, "fidelity", EXPERIMENTS_DIR / "ghz4_polarization.exp", "--target", tmp_path)
    assert code == 2
    assert out == ""
    assert f"bad target {str(tmp_path)!r}: cannot read it" in err


@pytest.mark.parametrize(
    "argv, spec",
    [
        (("fidelity", EXPERIMENTS_DIR / "ghz4_polarization.exp", "--target", "ghz:4"), "ghz:4"),
        (("fidelity", EXPERIMENTS_DIR / "ghz4_polarization.exp", "--target", "ghz:x:2"), "ghz:x:2"),
        (("search", "srv:a,b", "--budget", 1), "srv:a,b"),
        (("search", "ghz:4:2", "--pool", "crystal,bogus", "--budget", 1), "crystal,bogus"),
        (("search", "ghz:4:2", "--pool", "crystal,crystal", "--budget", 1), "crystal,crystal"),
        (("search", "ghz:3:2", "--budget", 1), "ghz:3:2"),
        (("search", "w:5", "--budget", 1), "w:5"),
        (("search", "ghz:4:2", "--detectors", "a,b,c", "--budget", 1), "ghz:4:2"),
        (("search", "ghz:4:2", "--detectors", "a,b,zz,d", "--budget", 1), "a,b,zz,d"),
        (("search", "srv:2,2", "--parties", "a,zz", "--budget", 1), "a,zz"),
        (("search", "srv:2,2", "--parties", "a,a", "--budget", 1), "a,a"),
        (("fidelity", EXPERIMENTS_DIR / "ghz4_polarization.exp", "--target", "ghz:6:2"), "ghz:6:2"),
        (("fidelity", EXPERIMENTS_DIR / "ghz4_polarization.exp", "--target", "w:3"), "w:3"),
        (("search", "ghz:4:2", "--paths", "a,,b,c", "--budget", 1), "a,,b,c"),
        (("search", "srv:2,2,2,2", "--paths", "a,a,b,c", "--budget", 1), "a,a,b,c"),
        (("search", "ghz:4:2", "--paths", "a,b,c,d,e", "--detectors", "a,a,b,c", "--budget", 1), "a,a,b,c"),
        (("search", "ghz:4:2", "--detectors", "a,b,,c", "--budget", 1), "a,b,,c"),
        (("search", "ghz:4:2", "--paths", "a b,c,d,e", "--budget", 1), "a b,c,d,e"),
        (("search", "ghz:4:2", "--paths", "a,b:1,c,d", "--budget", 1), "a,b:1,c,d"),
        (("search", "ghz:4:2", "--paths", "a,b,c,d#", "--budget", 1), "a,b,c,d#"),
        (("search", "srv:0,2,2", "--paths", "t,a,b,c", "--parties", "a,b,c", "--budget", 1), "srv:0,2,2"),
    ],
    ids=[
        "ghz-missing-d",
        "ghz-non-integer",
        "srv-non-integer",
        "unknown-pool-kind",
        "repeated-pool-kind",
        "ghz-fewer-parties-than-detectors",
        "w-more-parties-than-detectors",
        "ghz-more-parties-than-detectors",
        "detector-outside-paths",
        "party-no-detector",
        "repeated-party",
        "fidelity-ghz-more-parties-than-detectors",
        "fidelity-w-fewer-parties-than-detectors",
        "empty-path-name",
        "repeated-path",
        "repeated-detector",
        "empty-detector-name",
        "path-name-with-space",
        "path-name-with-colon",
        "path-name-with-hash",
        "srv-rank-below-1",
    ],
)
def test_bad_target_or_pool_spec_exits_2(capsys, argv, spec):
    try:
        code = main([str(a) for a in argv])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert repr(spec) in captured.err


@pytest.mark.parametrize(
    "argv, name",
    [
        (("search", "ghz:4:2", "--budget", 0), "--budget"),
        (("search", "ghz:4:2", "--threshold", 2), "--threshold"),
        (("search", "ghz:4:2", "--max-elements", 0), "--max-elements"),
        (("search", "ghz:4:2", "--seed", -1), "--seed"),
        (("search", "ghz:4:2", "--workers", -3), "--workers"),
        (("run", EXPERIMENTS_DIR / "ghz4_polarization.exp", "--order", 0), "--order"),
        (("efficiency", 3, 2), "n=3"),
        (("layout", "ghz", 5, 2), "n=5"),
        (("layout", "ghz", 4, 9), "d=9"),
    ],
    ids=[
        "budget",
        "threshold",
        "max-elements",
        "seed",
        "workers",
        "order",
        "efficiency-odd-n",
        "layout-odd-n",
        "layout-too-many-levels",
    ],
)
def test_bad_numeric_argument_exits_2(capsys, argv, name):
    try:
        code = main([str(a) for a in argv])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert name in captured.err


def test_empty_simulated_efficiency_exits_1(capsys):
    # A valid request whose experiment has no n-photon component is an
    # empty result, not bad input.
    code, out, err = invoke(
        capsys, "efficiency", 4, 2, "--simulate", EXPERIMENTS_DIR / "induced_coherence.exp"
    )
    assert code == 1
    assert out == ""
    assert "no 3-photon component" in err


def test_simulated_efficiency_of_a_missing_file_prints_nothing(capsys):
    # Nothing reaches stdout unless the whole report does.
    code, out, err = invoke(capsys, "efficiency", 4, 2, "--simulate", "missing.exp")
    assert code == 2
    assert out == ""
    assert "cannot read missing.exp" in err


def test_float_efficiency_without_the_sector_exits_1(capsys, tmp_path):
    # A phase makes the efficiency a float ratio; the pair budget of one
    # pair leaves no 3-photon sector for it to divide by.
    path = tmp_path / "phased.exp"
    path.write_text((EXPERIMENTS_DIR / "induced_coherence.exp").read_text() + "phase a 0.5\n")
    code, out, err = invoke(capsys, "efficiency", 4, 2, "--simulate", path)
    assert code == 1
    assert out == ""
    assert err == "no 3-photon component in the experiment output\n"


def test_srv_drops_separable_trigger_by_default(capsys):
    code, out, _ = invoke(capsys, "srv", EXPERIMENTS_DIR / "asym_rank422_triggered.exp")
    assert code == 0
    assert out.strip() == "4 2 2"


def test_srv_explicit_parties(capsys):
    code, out, _ = invoke(
        capsys,
        "srv",
        EXPERIMENTS_DIR / "asym_rank422_triggered.exp",
        "--parties",
        "t,a,b,c",
    )
    assert code == 0
    assert out.strip() == "4 2 2 1"


# Each corpus file's line for ``fidelity --target ghz:<n>:2``, ``fidelity
# --target ghz:<n>:3``, ``srv`` and ``srv --parties <first two detectors>``,
# n being its detector count, as the decoded-tuple scorer printed them.
CLI_SCORES = {
    "asym_rank422_triggered": ("0.12738413927215583", "0.08492275951477056", "4 2 2", "4 1"),
    "found_ghz4_polarization": ("1.0", "0.6666666666666671", "2 2 2 2", "2 2"),
    "found_highdim_shifters": ("0.6666666666666666", "1.0", "3 3 3 3", "3 3"),
    "ghz4_3dim_oam": ("0.6666666666666666", "1.0", "3 3 3 3", "3 3"),
    "ghz4_polarization": ("1.0", "0.6666666666666671", "2 2 2 2", "2 2"),
    "ghz6_5dim_oam": ("0.1333333333333334", "0.20000000000000015", "5 5 5 5 5 5", "5 5"),
    "ghz6_polarization": ("1.0", "0.6666666666666671", "2 2 2 2 2 2", "2 2"),
    "induced_coherence": None,  # nothing passes the n-fold selection
    "overlapped_double_pair": ("0.45124690866011935", "0.8333187751469927", "4 4", "4 4"),
    "two_photon_4dim_chain": ("0.25", "0.08333333333333338", "4 4", "4 4"),
    "w4_polarization": ("0.0", "0.0", "2 2 2 2", "2 2"),
}


@pytest.mark.parametrize("command", range(4), ids=["ghz-d2", "ghz-d3", "srv", "srv-first-two"])
@pytest.mark.parametrize("path", CORPUS, ids=lambda path: path.stem)
def test_fidelity_and_srv_print_the_pinned_scores(capsys, path, command):
    detectors = dsl.parse(path.read_text()).detectors
    n = len(detectors)
    argv = (
        ("fidelity", path, "--target", f"ghz:{n}:2"),
        ("fidelity", path, "--target", f"ghz:{n}:3"),
        ("srv", path),
        ("srv", path, "--parties", ",".join(detectors[:2])),
    )[command]
    lines = CLI_SCORES[path.stem]
    want = (1, "", "post-selected component is zero\n") if lines is None else (0, lines[command] + "\n", "")
    assert invoke(capsys, *argv) == want


@pytest.mark.parametrize(
    "parties, bad",
    [("a,b,zz", "zz"), ("a,,b", ""), ("a,loss#0", "loss#0")],
    ids=["unknown-path", "empty-name", "loss-path"],
)
def test_srv_rejects_a_party_that_is_no_detector(capsys, parties, bad):
    code, out, err = invoke(
        capsys, "srv", EXPERIMENTS_DIR / "ghz4_polarization.exp", "--parties", parties
    )
    assert code == 2
    assert out == ""
    assert f"{bad!r} is not a detector path" in err


def test_srv_rejects_a_repeated_party(capsys):
    code, out, err = invoke(
        capsys, "srv", EXPERIMENTS_DIR / "ghz4_polarization.exp", "--parties", "a,a"
    )
    assert code == 2
    assert out == ""
    assert "bad --parties 'a,a': 'a' appears twice" in err


def test_run_rejects_a_non_finite_phase_with_its_position(tmp_path, capsys):
    bad = tmp_path / "nan.exp"
    bad.write_text("detectors a b\ncrystal a:0 b:0\nphase a nan\n")
    code, out, err = invoke(capsys, "run", bad)
    assert code == 2
    assert out == ""
    assert f"{bad}:3:9" in err


def test_efficiency_formula_only(capsys):
    code, out, _ = invoke(capsys, "efficiency", 4, 2)
    assert code == 0
    assert out.strip() == "formula 1/8"


def test_efficiency_with_simulation(capsys):
    code, out, err = invoke(capsys, "efficiency", 4, 2, "--simulate")
    assert code == 0
    assert "formula 1/8" in out
    assert "simulated 1/5" in out
    assert "note:" in err


def test_a_float_simulated_efficiency_prints_no_note(capsys, tmp_path):
    exp = ghz_layout(4, 2)
    exp = replace(exp, elements=exp.elements + (PhaseShifter("a", 0.5),))
    path = tmp_path / "phased.exp"
    path.write_text(dsl.serialize(exp))
    code, out, err = invoke(capsys, "efficiency", 4, 2, "--simulate", path)
    assert code == 0
    assert out.splitlines()[0] == "formula 1/8"
    assert float(out.splitlines()[1].removeprefix("simulated ")) != 1 / 8
    assert err == ""


def test_layout_output_is_parseable_and_runs(capsys, tmp_path):
    code, out, _ = invoke(capsys, "layout", "ghz", 4, 2)
    assert code == 0
    layout_file = tmp_path / "layout.exp"
    layout_file.write_text(out)
    code, out, _ = invoke(capsys, "fidelity", layout_file, "--target", "ghz:4:2")
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0, abs=1e-12)


def test_build2_chain_round_trip(capsys, tmp_path):
    code, out, _ = invoke(capsys, "build2", "1,1j,-1,-1j")
    assert code == 0
    chain = tmp_path / "chain.exp"
    chain.write_text(out)
    code, out, _ = invoke(capsys, "run", chain, "--json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines() if line]
    assert len(records) == 4


@pytest.mark.parametrize(
    "coefficients, index",
    [("nan,1", 0), ("1,nanj", 1), ("inf,1", 0), ("1,1,-infj", 2)],
)
def test_build2_rejects_a_non_finite_coefficient_by_index(capsys, coefficients, index):
    code, out, err = invoke(capsys, "build2", coefficients)
    assert code == 2
    assert out == ""
    assert f"coefficient {index} " in err and "is not finite" in err


def test_coherence_pass_and_fail(tmp_path, capsys):
    good = tmp_path / "good.lengths"
    good.write_text(
        "lp1=1.0\nlp2=1.0\nlp3=1.002\nlp4=1.002\n"
        "l1=1.002\nl2=1.002\nl3=1.002\nl4=1.002\n"
        "lc_spdc=1e-4\nlc_pump=1e-1\nepsilon=0.1\n"
    )
    code, out, _ = invoke(capsys, "coherence", good)
    assert code == 0
    assert out.strip().endswith("PASS")

    bad = tmp_path / "bad.lengths"
    bad.write_text(
        "lp1=1.0\nlp2=1.0\nlp3=1.0\nlp4=1.0\n"
        "l1=1.01\nl2=1.0\nl3=1.0\nl4=1.0\n"
        "lc_spdc=1e-4\nlc_pump=1e-1\nepsilon=0.1\n"
    )
    code, out, _ = invoke(capsys, "coherence", bad)
    assert code == 1
    assert "VIOLATED" in out
    assert out.strip().endswith("FAIL")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_coherence_rejects_a_non_finite_length_with_its_line(tmp_path, capsys, value):
    spec = tmp_path / "nan.lengths"
    spec.write_text(
        f"lp1={value}\nlp2=1.0\nlp3=1.002\nlp4=1.002\n"
        "l1=1.002\nl2=1.002\nl3=1.002\nl4=1.002\n"
        "lc_spdc=1e-4\nlc_pump=1e-1\nepsilon=0.1\n"
    )
    code, out, err = invoke(capsys, "coherence", spec)
    assert code == 2
    assert out == ""
    assert f"line 1: lp1 = {value} is not finite" in err


def test_search_writes_hits(tmp_path, capsys):
    out_dir = tmp_path / "hits"
    code, out, err = invoke(
        capsys,
        "search",
        "ghz:4:2",
        "--budget", 1000,
        "--seed", 20240817,
        "--paths", "a,b,c,d",
        "--out", out_dir,
    )
    assert code == 0
    assert "hit trial=147" in out
    files = list(out_dir.glob("hit_*.exp"))
    assert files
    assert "hit(s)" in err


def test_search_rejects_an_out_path_that_is_a_file_before_any_trial(tmp_path, capsys, monkeypatch):
    taken = tmp_path / "hits"
    taken.write_text("")

    def no_search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr("spdcsim.cli.search_with_stats", no_search)
    code, out, err = invoke(capsys, "search", "ghz:4:2", "--budget", 1000, "--out", taken)
    assert code == 2
    assert out == ""
    assert f"bad --out {str(taken)!r}" in err


@pytest.mark.parametrize("requested, cores, started", [(5000, 4, 4), (2, 4, 2), (3, None, 1)])
def test_search_starts_no_more_workers_than_cores(capsys, monkeypatch, requested, cores, started):
    # A process pool forks all its workers on the first submit, so the
    # count is clamped before the search; no process starts here.
    asked = []

    def no_search(config, *, workers):
        asked.append(workers)
        return [], None

    monkeypatch.setattr("spdcsim.cli.search_with_stats", no_search)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    code, _, _ = invoke(capsys, "search", "ghz:4:2", "--workers", requested)
    assert code == 1
    assert asked == [started]


def search_stats(err):
    """The ``--stats`` record: the last line on stderr."""
    return json.loads(err.splitlines()[-1])


def test_search_stats_line_accounts_for_every_trial(capsys):
    argv = ("search", "ghz:4:2", "--budget", 3000, "--seed", 20240817)
    code, out, err = invoke(capsys, *argv)
    code_stats, out_stats, err_stats = invoke(capsys, *argv, "--stats")
    assert code == code_stats == 0
    assert out_stats == out
    assert err_stats.splitlines()[:-1] == err.splitlines()
    stats = search_stats(err_stats)
    assert stats["trials"] == 3000
    assert stats["evaluated"] + stats["cache_hits"] == stats["trials"]
    assert stats["evaluated"] < stats["trials"]
    assert 0 < stats["screened"] <= stats["evaluated"]
    assert stats["accepted"] == out.count("hit trial=")
    assert len(stats["score_histogram"]) == 10
    assert sum(stats["score_histogram"].values()) == stats["evaluated"]
    assert stats["trials_per_s"] > 0 and stats["draw_s"] > 0 and stats["score_s"] > 0


def test_search_stats_for_a_rank_target_count_scores_0_and_1(capsys):
    code, _, err = invoke(
        capsys, "search", "srv:4,2,2", "--paths", "t,a,b,c", "--parties", "a,b,c",
        "--pool", "multimode", "--max-elements", 2, "--budget", 1000, "--seed", 7,
        "--workers", 2, "--stats",
    )
    assert code == 0
    stats = search_stats(err)
    assert list(stats["score_histogram"]) == ["0", "1"]
    assert stats["score_histogram"]["1"] >= 1
    assert sum(stats["score_histogram"].values()) == stats["evaluated"]
    assert stats["evaluated"] + stats["cache_hits"] == stats["trials"] == 1000


def test_search_target_sits_on_the_detector_paths(capsys):
    argv = ("search", "ghz:4:2", "--budget", 3000, "--seed", 20240817)
    code, default, _ = invoke(capsys, *argv)
    renamed_code, renamed, _ = invoke(capsys, *argv, "--paths", "p,q,r,s")
    assert code == renamed_code == 0
    assert renamed == default


def test_search_accepts_a_state_file_on_the_detectors(tmp_path, capsys):
    target = tmp_path / "ghz.state"
    target.write_text(ghz_target(4, 2, paths=("p", "q", "r", "s")).serialize())
    code, out, _ = invoke(
        capsys, "search", target, "--paths", "p,q,r,s", "--budget", 1000, "--seed", 20240817
    )
    assert code == 0
    assert "hit trial=147" in out


@pytest.mark.parametrize("paths", ["p,q,r,t", "a,b,c,d"], ids=["one-path-off", "default-paths"])
def test_search_rejects_a_state_file_off_the_detectors(tmp_path, capsys, paths):
    target = tmp_path / "target.state"
    target.write_text(ghz_target(4, 2, paths=paths.split(",")).serialize())
    code, out, err = invoke(capsys, "search", target, "--paths", "p,q,r,s", "--budget", 50)
    assert code == 2
    assert out == ""
    assert f"bad target {str(target)!r}" in err


def test_search_rejects_a_non_finite_amplitude_before_any_trial(tmp_path, capsys):
    target = tmp_path / "nan.state"
    target.write_text(NAN_GHZ_STATE)
    code, out, err = invoke(capsys, "search", target, "--budget", 50)
    assert code == 2
    assert out == ""
    assert f"bad target {str(target)!r}: line 1: amplitude nan 0 is not finite" in err

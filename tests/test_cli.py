import json
import math

import pytest

from spdcsim.cli import main

from conftest import EXPERIMENTS_DIR


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


def test_run_reports_parse_errors_with_position(tmp_path, capsys):
    bad = tmp_path / "bad.exp"
    bad.write_text("detectors a b\nmisalign a T=1.5\n")
    with pytest.raises(SystemExit) as err:
        invoke(capsys, "run", bad)
    assert err.value.code == 2
    assert "2:12" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "argv, spec",
    [
        (("fidelity", EXPERIMENTS_DIR / "ghz4_polarization.exp", "--target", "ghz:4"), "ghz:4"),
        (("fidelity", EXPERIMENTS_DIR / "ghz4_polarization.exp", "--target", "ghz:x:2"), "ghz:x:2"),
        (("search", "srv:a,b", "--budget", 1), "srv:a,b"),
        (("search", "ghz:4:2", "--pool", "crystal,bogus", "--budget", 1), "crystal,bogus"),
    ],
    ids=["ghz-missing-d", "ghz-non-integer", "srv-non-integer", "unknown-pool-kind"],
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
    code, _, err = invoke(
        capsys, "efficiency", 4, 2, "--simulate", EXPERIMENTS_DIR / "induced_coherence.exp"
    )
    assert code == 1
    assert "no 3-photon component" in err


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

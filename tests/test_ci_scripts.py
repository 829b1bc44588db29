"""The CI's two gate scripts in ``.github/scripts``, on small fixture files.

``check_tier1.py`` reads a pytest JUnit report and passes only when
criterion 10c is the one failure and nothing is skipped;
``check_search_stats.py`` reads the stdout and stderr of ``spdcsim search
--stats`` runs and passes only when their hit lines and counts agree.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / ".github" / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_tier1 = load("check_tier1")
check_search_stats = load("check_search_stats")


# -- check_tier1.py -------------------------------------------------------------

PASSED = '<testcase classname="tests.test_fock" name="test_vacuum" time="0.001" />'
CRITERION_10C = (
    '<testcase classname="tests.test_acceptance" name="test_criterion_10c_overlapped_double_pair_ranks" time="0.01">'
    '<failure message="assert (10, 10) == (10, 6, 6)">AssertionError</failure></testcase>'
)
SECOND_FAILURE = (
    '<testcase classname="tests.test_cli" name="test_run_prints_state_table" time="0.02">'
    '<failure message="assert 1 == 0">AssertionError</failure></testcase>'
)
# pytest reports a module that fails to import as an erroring case named after it.
COLLECTION_ERROR = (
    '<testcase classname="" name="tests.test_search" time="0.000">'
    '<error message="collection failure">ImportError: cannot import name</error></testcase>'
)
SKIPPED = (
    '<testcase classname="tests.test_dsl" name="test_parse" time="0.000">'
    '<skipped type="pytest.skip" message="no numpy">skipped</skipped></testcase>'
)


def junit(tmp_path, *cases):
    report = tmp_path / "tier1.xml"
    report.write_text(
        '<?xml version="1.0" encoding="utf-8"?><testsuites><testsuite name="pytest">'
        + "".join(cases)
        + "</testsuite></testsuites>"
    )
    return str(report)


@pytest.mark.parametrize(
    "cases, code",
    [
        ((PASSED, CRITERION_10C), 0),
        ((PASSED, CRITERION_10C, SECOND_FAILURE), 1),
        ((PASSED, CRITERION_10C, COLLECTION_ERROR), 1),
        ((PASSED, CRITERION_10C, SKIPPED), 1),
        ((PASSED,), 1),
    ],
    ids=["only-10c-fails", "second-failure", "collection-error", "skip", "10c-passes"],
)
def test_check_tier1_passes_only_10c_failing_and_nothing_skipped(tmp_path, capsys, cases, code):
    assert check_tier1.main(junit(tmp_path, *cases)) == code
    assert "test cases, failing:" in capsys.readouterr().out


# -- check_search_stats.py --------------------------------------------------------

STATS = {
    "trials": 3000,
    "trials_per_s": 9000.0,
    "accepted": 2,
    "evaluated": 1500,
    "classes": 40,
    "cache_hits": 1500,
    "screened": 300,
    "draw_s": 0.2,
    "score_s": 0.1,
    "score_histogram": {"0": 2998, "1": 2},
}


def search_run(tmp_path, name, hits, **changes):
    """The stdout and stderr files of one ``spdcsim search --stats`` run:
    ``hits`` hit lines, and the stats record with ``changes``."""
    out = tmp_path / f"{name}.out"
    err = tmp_path / f"{name}.err"
    out.write_text("".join(f"hit trial={t} score=1.0\n" for t in range(hits)))
    stats = {**STATS, **changes}
    err.write_text(f"{hits} hit(s) in {stats['trials']} trials\n{json.dumps(stats)}\n")
    return [str(out), str(err)]


def test_check_search_stats_passes_equal_counts(tmp_path):
    serial = search_run(tmp_path, "serial", 2)
    assert check_search_stats.main(["--screened", *serial, *search_run(tmp_path, "workers", 2)]) == 0


def test_check_search_stats_fails_a_hit_count_other_than_accepted(tmp_path, capsys):
    assert check_search_stats.main(search_run(tmp_path, "serial", 3)) == 1
    assert "3 hit lines, but" in capsys.readouterr().out
    serial = search_run(tmp_path, "serial", 2)
    assert check_search_stats.main([*serial, *search_run(tmp_path, "workers", 1, accepted=2)]) == 1


def test_check_search_stats_ignores_the_timing_fields(tmp_path):
    serial = search_run(tmp_path, "serial", 2)
    parallel = search_run(tmp_path, "workers", 2, trials_per_s=15000.0, draw_s=0.5, score_s=0.01)
    assert check_search_stats.main([*serial, *parallel]) == 0
    other = search_run(tmp_path, "other", 2, classes=41)
    assert check_search_stats.main([*serial, *other]) == 1


def test_check_search_stats_fails_a_screened_run_that_screened_nothing(tmp_path, capsys):
    serial = search_run(tmp_path, "serial", 2, screened=0)
    assert check_search_stats.main(serial) == 0
    assert check_search_stats.main(["--screened", *serial]) == 1
    assert "expected 0 < screened <= evaluated" in capsys.readouterr().out

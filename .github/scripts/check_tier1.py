"""Fail unless the only failing tier-1 test is the documented criterion 10c
and no test is skipped.

Usage: python3 .github/scripts/check_tier1.py report.xml

Reads a pytest JUnit XML report.  Every failed or erroring test case
(collection errors included) is collected; the run passes only when
that set is exactly the expected failure (see the README on why the (10,6,6) target is unreachable).
Any skipped test case fails the check: tier-1 marks nothing to skip, so
a skip could only hide a test.
"""

import sys
import xml.etree.ElementTree as ET

EXPECTED = {"test_criterion_10c_overlapped_double_pair_ranks"}


def main(path: str) -> int:
    root = ET.parse(path).getroot()
    failing, skipped, total = set(), [], 0
    for case in root.iter("testcase"):
        total += 1
        name = case.get("name", "")
        if case.find("failure") is not None or case.find("error") is not None:
            failing.add(name)
        elif case.find("skipped") is not None:
            skipped.append(name)
    print(f"{total} test cases, failing: {sorted(failing) or 'none'}, skipped: {skipped or 'none'}")
    if failing != EXPECTED:
        print(f"expected exactly {sorted(EXPECTED)} to fail")
        return 1
    if skipped:
        print("expected no skipped test")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

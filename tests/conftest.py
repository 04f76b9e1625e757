"""Per-criterion PASS/FAIL summary for the acceptance suite.

Acceptance tests are named test_criterion_NN_*; every test sharing a
criterion number is aggregated into one line printed after the run, so the
terminal output ends with an explicit verdict per criterion.
"""

import re

CRITERIA = {
    "01": "theory counts for the cyclic and dihedral benchmark set",
    "02": "bad-part counts and the Z13 bad-part ratio",
    "03": "Frobenius group counts and bad-part ratios",
    "04": "cyclic prime-order divisor law",
    "05": "explicit Z7 partition structures",
    "06": "Bell numbers, unpruned visit counts, pruning walkthrough",
    "07": "brute-force oracle equality for every small generator table",
    "08": "pruned versus unpruned counter laws on Z13",
    "09": "every emitted theory re-verifies against its table",
    "10": "report bytes are equal across processes with different hash seeds",
}

_PATTERN = re.compile(r"test_acceptance\.py::.*test_criterion_(\d{2})")
_results: dict[str, dict[str, int]] = {}


def pytest_runtest_logreport(report):
    match = _PATTERN.search(report.nodeid)
    if not match:
        return
    bucket = _results.setdefault(
        match.group(1), {"passed": 0, "failed": 0, "skipped": 0})
    if report.failed:
        bucket["failed"] += 1
    elif report.skipped:
        bucket["skipped"] += 1
    elif report.when == "call" and report.passed:
        bucket["passed"] += 1


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(CRITERIA):
        label = CRITERIA[number]
        bucket = _results.get(number)
        if bucket is None or (bucket["passed"] == 0 and bucket["failed"] == 0):
            terminalreporter.write_line(f"ACCEPTANCE {number}: NOT RUN - {label}")
            continue
        if bucket["failed"]:
            verdict = f"FAIL ({bucket['failed']} of {bucket['failed'] + bucket['passed']} checks failed)"
        else:
            verdict = f"PASS ({bucket['passed']} checks)"
        terminalreporter.write_line(f"ACCEPTANCE {number}: {verdict} - {label}")

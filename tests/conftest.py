"""Suite-wide reporting: one pass/fail line per acceptance criterion.

It also imports ``hypothesis.extra._patching`` once, with its
``DeprecationWarning`` ignored.  Hypothesis's pytest plugin imports that
module when a property test fails, and ``libcst``, which it loads, warns
through ``mypy_extensions``; the suite turns that warning into an error
inside a pytest hook, which would stop the whole run with ``INTERNALERROR``
instead of reporting the failure.  ``libcst`` is optional, so a missing one
is fine.
"""

import re
import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

_CRITERION = re.compile(r"test_criterion_(\d+)")
_outcomes: dict[int, tuple[str, str]] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    match = _CRITERION.search(report.nodeid)
    if not match:
        return
    number = int(match.group(1))
    slug = report.nodeid.split("::")[-1]
    if report.when == "call":
        _outcomes[number] = (report.outcome, slug)
    elif report.when == "setup" and report.outcome != "passed":
        # setup error or skip counts as a non-pass for the criterion
        _outcomes[number] = (report.outcome, slug)


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_outcomes):
        outcome, slug = _outcomes[number]
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {verdict} ({slug})")

"""Shared fixtures and the acceptance-summary hook.

The exhaustive small-multigraph sweep is the most expensive object in the
suite, so it is built once per session and shared between the unit tests
and the acceptance gate. The terminal-summary hook prints one PASS/FAIL
line per acceptance criterion at the end of the run.
"""

import pytest

from iharazeta.smallgraphs import connected_multigraphs
from iharazeta.zeta import zeta_bass

ACCEPTANCE_CRITERIA = {
    1: "three engines agree on every multigraph with at most 7 edges",
    2: "printed fixture polynomials reproduced coefficient for coefficient",
    3: "family closed forms equal engine output on the full grids",
    4: "Moebius ladder closed form exact for n = 4..30; M(4) equals K(4)",
    5: "polynomial is even exactly for bipartite graphs, sweep-wide",
    6: "leading coefficient and girth readout identities, sweep-wide",
    7: "rank-two polynomials distinct to 12 edges; exhaustive to 6 edges",
    8: "tree counts: zeta derivative = Kirchhoff; closed-form grids",
    9: "cycle-packing census matches the per-coefficient tables",
}


@pytest.fixture(scope="session")
def sweep7():
    """Every connected min-degree-2 multigraph with |E| <= 7, one per
    isomorphism class."""
    return connected_multigraphs(7)


@pytest.fixture(scope="session")
def sweep7_bass(sweep7):
    """Bass polynomials of the sweep, computed once."""
    return [zeta_bass(g) for g in sweep7]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for outcome, verdict in (("passed", "PASS"), ("failed", "FAIL"),
                             ("error", "FAIL")):
        for rep in terminalreporter.stats.get(outcome, []):
            name = rep.nodeid.rsplit("::", 1)[-1]
            if not name.startswith("test_criterion_"):
                continue
            if outcome == "passed" and rep.when != "call":
                continue
            num = int(name.split("_")[2])
            # a failure in any phase trumps an earlier pass
            if verdict == "FAIL" or num not in results:
                results[num] = verdict
    if results:
        terminalreporter.write_sep("-", "acceptance criteria")
        for num in sorted(ACCEPTANCE_CRITERIA):
            verdict = results.get(num, "not run")
            terminalreporter.write_line(
                f"criterion {num}: {verdict:8s} {ACCEPTANCE_CRITERIA[num]}"
            )

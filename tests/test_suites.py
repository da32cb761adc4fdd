import math

import pytest

from alphaneg.suites import (
    _tally,
    faithfulness_suite,
    monotonicity_suite,
    ordering_suite,
    run_suite,
    subadditivity_suite,
)


class TestTally:
    def test_violation_is_strictly_below_minus_tol(self):
        tol = 1e-8
        at = _tally("edge", iter([-tol, 0.5]), tol)
        assert (at.checked, at.violations, at.worst_slack) == (2, 0, -tol)
        below = _tally("edge", iter([0.5, math.nextafter(-tol, -math.inf)]), tol)
        assert (below.checked, below.violations) == (2, 1)
        assert not below.passed

    def test_empty(self):
        report = _tally("empty", iter(()), 1e-8)
        assert report.checked == 0
        assert report.violations == 0
        assert report.worst_slack == math.inf


@pytest.mark.parametrize(
    "suite, args, checked",
    [
        (ordering_suite, (8,), 32),
        (monotonicity_suite, (5, 3), 45),
        (subadditivity_suite, (2,), 4),
        (faithfulness_suite, (6,), 12),
    ],
    ids=["ordering", "monotonicity", "subadditivity", "faithfulness"],
)
def test_measure_suites_pass_at_smoke_size(suite, args, checked):
    # the instance counts of ``run_suite(..., smoke=True)``
    report = suite(0, *args)
    assert report.checked == checked
    assert report.passed, report


def test_lemma_batteries_pass_at_smoke_size():
    # ``check --suite lemmas --smoke``: these drive mu_alpha at every order
    reports = run_suite("lemmas", 0, smoke=True)
    assert [(r.name, r.checked) for r in reports] == [
        ("data-processing", 100),
        ("cq-blocks", 100),
        ("trace-norm-bound", 100),
        ("normalized-ordering", 60),
        ("plain-ordering", 120),
        ("divergence-convexity", 720),
        ("regularization-continuity", 60),
    ]
    assert all(r.passed for r in reports), reports

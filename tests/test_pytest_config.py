"""The suite's warning filters let a failing property test report itself.

``pyproject.toml`` turns every warning into an error.  The hypothesis pytest
plugin's report hook reads a deprecated ``mypy_extensions`` name; unless that
one warning is ignored, the first failing ``@given`` test ends the run with an
``INTERNALERROR`` before its falsifying example is printed or any later test
runs.  The probe below runs a failing and a passing test in a pytest
subprocess under the repository's own ini options.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_failing_property_test_reports_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider", "-q", "test_probe.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "Falsifying example: test_fails(" in output
    assert "1 failed, 1 passed" in output

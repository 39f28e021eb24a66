"""The test configuration in ``pyproject.toml``.

Every warning is an error, but a failing ``hypothesis`` property must still
print its falsifying example and leave the rest of the session running.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

SESSION = """
    import warnings

    from hypothesis import given, settings
    from hypothesis import strategies as st


    @settings(max_examples=20, derandomize=True, database=None)
    @given(st.integers(0, 10))
    def test_a_failing_property(n):
        assert n < 5


    def test_another_warning_is_still_an_error():
        warnings.warn("some other API is deprecated", DeprecationWarning)


    def test_a_later_test_runs():
        pass
"""


def test_a_failing_property_reports_its_example(tmp_path):
    (tmp_path / "test_session.py").write_text(textwrap.dedent(SESSION))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", str(tmp_path / "test_session.py")],
        capture_output=True, text=True, timeout=120)
    out = result.stdout
    assert "INTERNALERROR" not in out + result.stderr
    assert "Falsifying example: test_a_failing_property(" in out and "n=5," in out
    assert "test_session.py::test_another_warning_is_still_an_error" in out
    assert "2 failed, 1 passed" in out
    assert result.returncode == 1

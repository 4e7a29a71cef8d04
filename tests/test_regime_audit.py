"""Smoke test of ``tools/regime_audit.py``: it replays the plans of the
acceptance criteria it names and prints one line for each.  The counts are
the script's findings and are not asserted here."""

import contextlib
import importlib.util
import io
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "regime_audit.py"


def test_regime_audit_prints_one_line_per_criterion():
    spec = importlib.util.spec_from_file_location("regime_audit", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert script.main() == 0
    lines = printed.getvalue().splitlines()
    assert [line.split(":")[0] for line in lines] == [f"criterion {c}" for c in (1, 7, 8, 9)]

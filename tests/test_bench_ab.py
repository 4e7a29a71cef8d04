"""Unit test of ``tools/bench_ab.py``'s summary on canned result lines of
``perfbench/run.py``; no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_ab.py"


def _script():
    spec = importlib.util.spec_from_file_location("bench_ab", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def _line(case_s, rate, failed=0):
    """A result line as ``perfbench/run.py --trace 0`` prints it last."""
    metrics = {"case_s_p50": {"value": case_s, "unit": "s"}, "cases_per_s": {"value": rate, "unit": "1/s"}}
    return json.dumps({"correct": failed == 0, "attempted": 100, "failed": failed, "metrics": metrics})


def test_summary_gives_medians_quartiles_and_wins():
    # head is faster in pairs 1-9 and slower in pair 10; its rate ties in
    # pair 10, and a tie is no win
    base = [5.0, 5.2, 5.4, 5.1, 5.3, 5.5, 5.6, 5.0, 5.2, 4.0]
    head = [4.5, 4.6, 4.7, 4.4, 4.6, 4.8, 4.9, 4.5, 4.6, 4.1]
    pairs = [(_line(b, 1 / b), _line(h, 1 / h if h < b else 1 / b, failed=int(h > b))) for b, h in zip(base, head)]
    lines = _script().summarize(pairs, {"case_s_p50": "lower", "cases_per_s": "higher"})
    assert lines[0].startswith("10 pairs")
    assert lines[1] == (
        "case_s_p50 (lower is better): base 5.2 [5, 5.425], head 4.6 [4.475, 4.725], -11.5%; head wins 9 of 10"
    )
    assert lines[2].startswith("cases_per_s (higher is better): base 0.192308 [")
    assert lines[2].endswith("; head wins 9 of 10")
    assert lines[3:] == ["base: 0 of 1000 cases failed", "head: 1 of 1000 cases failed"]

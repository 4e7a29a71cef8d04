"""Smoke test of ``tools/output_digest.py``: its generators run against the
package as it stands and name every output once, so a rename in ``src/``
that breaks the digest shows here rather than at the next comparison."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


def test_output_digest_runs_and_names_are_unique():
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    lines = list(script.digests())
    names = [name for name, _ in lines]
    assert len(names) == len(set(names))
    assert all(len(digest) == 64 for _, digest in lines)

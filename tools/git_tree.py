"""Write a tree of this repository into a directory, for the tools that run
two trees side by side (``output_digest.py --against``, ``bench_ab.py``).

``extract(rev, dest)`` writes ``git archive rev``; ``copy_worktree(dest)``
copies the working tree's files that git tracks or would track (ignored files
such as ``__pycache__/`` and ``.perfbench/`` stay behind, and so does
``.git``).
"""

from __future__ import annotations

import io
import shutil
import subprocess
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract(rev: str, dest: Path) -> None:
    """Write the files of ``git archive rev`` under dest."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True, stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def copy_worktree(dest: Path) -> None:
    """Copy the working tree's tracked and untracked, not ignored, files
    under dest; a tracked file deleted from the working tree is left out."""
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        check=True, stdout=subprocess.PIPE,
    ).stdout
    for name in sorted(set(listed.decode().split("\0")) - {""}):
        source = ROOT / name
        if source.is_file():
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)

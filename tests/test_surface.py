"""The public surface of ``src/hypercross`` stays at the contract.

Every top-level public function and class must be referenced somewhere in
the package, the acceptance battery or the benchmark, outside its own
definition; otherwise it is code that only its own unit tests exercise.
The allowlist holds the few names kept as test references or fixtures.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hypercross"

# name -> why it stays although no contract file calls it
TEST_REFERENCES = {
    "haar_eval": "builds the Haar functions the haar_transform tests in test_dyadic.py compare against",
    "psi2_space": "space-side oracle for psi2_hat in test_decomposition.py",
    "identity_operator": "known-norm operator for the estimator tests in test_normest.py",
    "make_custom_profile": "builds the zero, reflected and wide profiles of the smoothness_constant/flat_radius tests in test_multiplier.py",
}


def _contract_files() -> list[Path]:
    return (
        sorted(PACKAGE.glob("*.py"))
        + [ROOT / "tests" / "test_acceptance.py"]
        + sorted((ROOT / "perfbench").glob("*.py"))
    )


def _public_definitions() -> dict[str, Path]:
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out[node.name] = path
    return out


def _names_in(tree: ast.AST) -> set[str]:
    """Names a subtree uses, bare or as an attribute.  An import alone, or a
    string that spells the name (a regularity kind, say), does not count."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _referenced(definitions: dict[str, Path]) -> set[str]:
    used = set()
    for path in _contract_files():
        for node in ast.parse(path.read_text()).body:
            names = _names_in(node)
            own = getattr(node, "name", None)
            if own is not None and definitions.get(own) == path:
                names.discard(own)  # a definition does not keep itself alive
            used |= names
    return used


def test_every_public_name_backs_the_contract():
    definitions = _public_definitions()
    used = _referenced(definitions)
    orphans = sorted(name for name in definitions if name not in used and name not in TEST_REFERENCES)
    assert not orphans, f"public names with no caller in src/, the acceptance battery or perfbench/: {orphans}"
    stale = sorted(name for name in TEST_REFERENCES if name not in definitions or name in used)
    assert not stale, f"allowlisted names that are gone or now have a contract caller: {stale}"

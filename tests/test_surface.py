"""The public surface of ``src/hypercross`` stays at the contract.

Every top-level public function and class must be referenced somewhere in
the package, the acceptance battery or the benchmark, outside its own
definition; otherwise it is code that only its own unit tests exercise.  The
allowlist holds the few names kept as test references or fixtures; the names
they use do not count as references.  Every public method of a public class
must be referenced wherever the class may be: by that contract code, or, for
an allowlisted class, also by the test references.

Methods are matched by name alone, so a method that shares its name with a
used method of another class (``record``, say) passes unseen; such a method
has to be found by reading the code.

Each CLI config key must also be read by a ``take("section", "key", ...)``
call in ``cli.py``, since the CLI rejects a key its command does not read.
"""

import ast
from pathlib import Path

from hypercross import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hypercross"

# name -> why it stays although no contract file calls it
TEST_REFERENCES = {
    "haar_eval": "builds the Haar functions the haar_transform tests in test_dyadic.py compare against",
    "DyadicInterval": "the interval argument of haar_eval",
    "psi2_space": "the space kernel whose cosine transform test_decomposition.py checks, so the octave window factors through psi2",
}


def _contract_files() -> list[Path]:
    return (
        sorted(PACKAGE.glob("*.py"))
        + [ROOT / "tests" / "test_acceptance.py"]
        + sorted((ROOT / "perfbench").glob("*.py"))
    )


def _public_definitions() -> dict[str, Path]:
    """Public top-level names, and Class.method for the public methods of
    public classes."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out[node.name] = path
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                            out[f"{node.name}.{item.name}"] = path
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


def _referenced(definitions: dict[str, Path]) -> tuple[set[str], set[str]]:
    """The names the contract code uses, and those the test references use."""
    used, by_references = set(), set()
    for path in _contract_files():
        for node in ast.parse(path.read_text()).body:
            names = _names_in(node)
            own = getattr(node, "name", None)
            if own is not None and definitions.get(own) == path:
                names.discard(own)  # a definition does not keep itself alive
                if own in TEST_REFERENCES:
                    by_references |= names
                    continue
            used |= names
    return used, by_references


def test_every_public_name_backs_the_contract():
    definitions = _public_definitions()
    used, by_references = _referenced(definitions)

    def has_caller(name: str) -> bool:
        owner, _, attr = name.rpartition(".")
        return attr in (used | by_references if owner in TEST_REFERENCES else used)

    orphans = sorted(name for name in definitions if not has_caller(name) and name not in TEST_REFERENCES)
    assert not orphans, f"public names with no caller in src/, the acceptance battery or perfbench/: {orphans}"
    stale = sorted(name for name in TEST_REFERENCES if name not in definitions or has_caller(name))
    assert not stale, f"allowlisted names that are gone or now have a contract caller: {stale}"


def test_every_config_key_is_taken():
    taken = set()
    for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text())):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "take":
            section, key = (arg.value for arg in node.args[:2] if isinstance(arg, ast.Constant))
            taken.add((section, key))
    # [linearizer] goes whole to generate_linearizer, which rejects the keys its kind does not read
    schema = {(section, key) for section, keys in cli._SCHEMA.items() if section != "linearizer" for key in keys}
    assert sorted(schema - taken) == [], "config keys no command reads"
    assert sorted(taken - schema) == [], "keys read but absent from the schema, so always at their default"

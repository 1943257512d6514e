"""Every function and class defined in src/snt_lab is reached from the
program: code that only tests call has no place in the package."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Definitions that only tests reach, kept on purpose.
TEST_ONLY = {
    # the tests cross-check the class map (person_class_map) against the
    # type-level map it partitions
    "person_type_map",
}


def unreached_definitions() -> set[str]:
    """Names of the functions and classes (dunder methods aside) of
    src/snt_lab that no code of the package outside their own body names,
    as a Name, an Attribute or an identifier string constant, and that
    neither perfbench/trace.py, which patches functions by name, nor
    pyproject.toml names."""
    definitions, references = [], []
    for path in sorted((ROOT / "src" / "snt_lab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((node.name, path, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                references.append((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                references.append((node.attr, path, node.lineno))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                references.append((node.value, path, node.lineno))
    named = {
        word
        for name in ("perfbench/trace.py", "pyproject.toml")
        for word in re.findall(r"\w+", (ROOT / name).read_text())
    }
    return {
        name
        for name, path, first, last in definitions
        if not (name.startswith("__") and name.endswith("__"))
        and name not in named
        and not any(
            ref == name and not (ref_path == path and first <= line <= last)
            for ref, ref_path, line in references
        )
    }


def test_every_definition_in_src_is_reached_from_src():
    unreached = unreached_definitions()
    assert unreached - TEST_ONLY == set(), "only tests reach these; remove them from src/"
    assert TEST_ONLY <= unreached, "the package now reaches these; drop them from TEST_ONLY"

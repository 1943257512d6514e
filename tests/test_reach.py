"""Every function, class and module-level constant defined in src/snt_lab
is reached from the program: code that only tests name has no place in the
package. Every setting is read by the program outside config."""

import ast
import re
from pathlib import Path

from snt_lab.config import RunConfig, ScenarioSpec

ROOT = Path(__file__).resolve().parents[1]


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreached(sources: dict[str, str], named: set[str]) -> set[str]:
    """Names of the functions, classes and module-level constants (dunder
    names aside) of the given module sources that no reached code names, as
    a Name, an Attribute or an identifier string constant, and that named
    does not hold. Code is reached when it is outside every unreached
    definition: a reference from a definition's own body or assignment, or
    from that of another unreached one, does not count, so a whole dead
    chain drops out, one link per pass, until a pass drops nothing more."""
    definitions, references = [], []
    for path, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    if isinstance(target, ast.Name) and not is_dunder(target.id):
                        definitions.append((target.id, path, node.lineno, node.end_lineno))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not is_dunder(node.name):
                    definitions.append((node.name, path, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                references.append((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                references.append((node.attr, path, node.lineno))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                references.append((node.value, path, node.lineno))
    dead = set()
    while True:
        spans = [(path, first, last) for name, path, first, last in definitions if name in dead]
        live_refs = [
            (ref, ref_path, line)
            for ref, ref_path, line in references
            if not any(ref_path == path and first <= line <= last for path, first, last in spans)
        ]
        now = {
            name
            for name, path, first, last in definitions
            if name not in named
            and not any(
                ref == name and not (ref_path == path and first <= line <= last)
                for ref, ref_path, line in live_refs
            )
        }
        if now == dead:
            return dead
        dead = now


def package_sources() -> dict[str, str]:
    """The source of each module of src/snt_lab, by file name."""
    return {
        path.name: path.read_text()
        for path in sorted((ROOT / "src" / "snt_lab").glob("*.py"))
    }


#: Methods that numpy calls on the package's objects, as Python calls dunder
#: methods: PCG64 asks harness's seed words (an ISeedSequence) for its state.
CALLED_BY_NUMPY = {"generate_state"}


def unreached_definitions() -> set[str]:
    """The unreached definitions of src/snt_lab, counting the words of
    perfbench/trace.py, which patches functions by name, and of
    pyproject.toml, and the methods numpy calls, as references."""
    named = {
        word
        for name in ("perfbench/trace.py", "pyproject.toml")
        for word in re.findall(r"\w+", (ROOT / name).read_text())
    }
    return unreached(package_sources(), named | CALLED_BY_NUMPY)


def test_every_definition_in_src_is_reached_from_src():
    assert unreached_definitions() == set(), "only tests reach these; remove them from src/"


def attributes_read(sources: dict[str, str]) -> set[str]:
    """The names read as an attribute (obj.name, not assigned) in the given
    module sources."""
    return {
        node.attr
        for source in sources.values()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_setting_is_read_outside_config():
    # a field that only config validates and loads changes nothing the
    # program does, and has no place in RunConfig or ScenarioSpec
    sources = package_sources()
    del sources["config.py"]
    read = attributes_read(sources)
    fields = (*RunConfig._fields, *ScenarioSpec._fields)
    assert [field for field in fields if field not in read] == []


def test_a_dead_chain_drops_out_whole():
    # from_records names IndexSet and records (its parameter's uses), and
    # records calls record and names ROWS; only main is reached, from
    # outside the sources
    source = '''
SCALE = 2
ROWS = 3
UNUSED: int = 4

def main():
    return helper() * SCALE

def helper():
    return 1

def from_records(records):
    return IndexSet([r for r in records])

class IndexSet:
    def records(self):
        return [self.record(i) for i in range(ROWS)]

    def record(self, i):
        return IndexRecord(i)

class IndexRecord:
    pass

def recursive(k):
    return recursive(k - 1) if k else 0
'''
    assert unreached({"m.py": source}, {"main"}) == {
        "from_records", "IndexSet", "records", "record", "IndexRecord", "recursive", "ROWS",
        "UNUSED",
    }
    assert unreached({"m.py": source}, {"main", "from_records"}) == {"recursive", "UNUSED"}

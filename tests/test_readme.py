"""README's and the package's own code names name code that exists.

Every inline code span of README.md that is a dotted name, optionally
called, whose head is the package, one of its modules or a class defined in
one of them, must resolve attribute by attribute; so must every such dotted
name in the package's docstrings and comments, with or without backticks.
File names such as `hazards.csv` and `output.py` are not code names.
"""

import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

import snt_lab

PACKAGE = Path(snt_lab.__file__).parent
README = PACKAGE.parents[1] / "README.md"

#: an inline code span holding a dotted name, with an optional call
CODE_NAME = re.compile(r"`(\w+(?:\.\w+)+)(?:\([^`]*\))?`")
#: a dotted name anywhere in a docstring or comment
DOTTED_NAME = re.compile(r"(?<![\w.])(\w+(?:\.\w+)+)")
FILE_SUFFIXES = ("csv", "json", "md", "py")


def named_heads():
    """The package, each of its modules, and each class defined in one, by
    the name a README span starts with."""
    modules = {
        path.stem: importlib.import_module(f"snt_lab.{path.stem}")
        for path in sorted(PACKAGE.glob("*.py"))
        if not path.stem.startswith("__")
    }
    classes = {
        name: value
        for module in modules.values()
        for name, value in vars(module).items()
        if isinstance(value, type) and value.__module__ == module.__name__
    }
    return {"snt_lab": snt_lab, **modules, **classes}


def readme_code_names(heads):
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    names = []
    for match in CODE_NAME.finditer(text):
        parts = match.group(1).split(".")
        if parts[0] in heads and parts[-1] not in FILE_SUFFIXES:
            names.append(parts)
    return names


def package_code_names(heads):
    """The dotted code names of each module's docstrings and comments."""
    names = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        texts = [
            ast.get_docstring(node, clean=False) or ""
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        texts += [
            token.string
            for token in tokenize.generate_tokens(io.StringIO(source).readline)
            if token.type == tokenize.COMMENT
        ]
        for match in DOTTED_NAME.finditer("\n".join(texts)):
            parts = match.group(1).split(".")
            if parts[0] in heads and parts[-1] not in FILE_SUFFIXES:
                names.append((path.name, parts))
    return names


def resolves(head, parts):
    value = head
    for part in parts:
        if not hasattr(value, part):
            return False
        value = getattr(value, part)
    return True


def test_readme_code_names_resolve():
    heads = named_heads()
    names = readme_code_names(heads)
    assert len(names) >= 20  # the span pattern still finds the README's names
    stale = [".".join(parts) for parts in names if not resolves(heads[parts[0]], parts[1:])]
    assert stale == []


def test_package_docstring_and_comment_code_names_resolve():
    heads = named_heads()
    names = package_code_names(heads)
    assert len(names) >= 20  # the name pattern still finds the docstrings' names
    stale = [
        (module, ".".join(parts))
        for module, parts in names
        if not resolves(heads[parts[0]], parts[1:])
    ]
    assert stale == []

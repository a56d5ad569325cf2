"""Every function and class that ``marc_pnc`` exports has a caller in the
package itself.  A reference that only tests call belongs under ``tests/``
(``oracles.py``), not in the public API."""

import ast
import inspect
from pathlib import Path

import pytest

import marc_pnc

PACKAGE = Path(marc_pnc.__file__).parent

#: ``parse_csv`` reads back what ``emit_csv`` writes and has no caller in the
#: package yet: the sweep report (ROADMAP item 4) is to give it one, and
#: ROADMAP item 10 removes it if that does not land.
EXEMPT = {"parse_csv"}


class _References(ast.NodeVisitor):
    """Names read in a module, outside the definition of the same name."""

    def __init__(self):
        self.names: set[str] = set()
        self._defining: list[str] = []

    def _definition(self, node):
        self._defining.append(node.name)
        self.generic_visit(node)
        self._defining.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _reference(self, name: str) -> None:
        if name not in self._defining:
            self.names.add(name)

    def visit_Name(self, node):
        self._reference(node.id)

    def visit_Attribute(self, node):
        self._reference(node.attr)
        self.generic_visit(node)


def package_references() -> set[str]:
    refs = _References()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            refs.visit(ast.parse(path.read_text(), filename=str(path)))
    return refs.names


EXPORTED = sorted(
    name
    for name in marc_pnc.__all__
    if inspect.isfunction(getattr(marc_pnc, name)) or inspect.isclass(getattr(marc_pnc, name))
)
REFERENCES = package_references()


@pytest.mark.parametrize("name", [name for name in EXPORTED if name not in EXEMPT])
def test_export_has_a_caller_in_the_package(name):
    assert name in REFERENCES, f"{name} is exported, but no package code outside its definition uses it"


def test_exemptions_are_still_needed():
    assert EXEMPT <= set(EXPORTED) and not EXEMPT & REFERENCES

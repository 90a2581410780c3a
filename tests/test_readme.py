"""README.md names code in backticks; each such name must still exist.

A backticked span that is an identifier or a dotted identifier is a code
name.  A dotted name resolves attribute by attribute, starting from
``frobjet``, one of its modules, or a name that a module defines
(``polyutils.fixed_mul``, ``Tower.product_rows``, ``frobjet.tower``).  A
plain name resolves if it is a builtin, a module, a name a module defines,
or an identifier the package source uses: a variable, parameter or
attribute (``e``, ``prec``, ``den``), or a string constant such as the
subcommand ``verify``.  ``NOT_CODE`` lists the spans that look like names
but are not code, with the reason; it names exactly the spans that do not
resolve, no more.
"""

import ast
import builtins
import importlib
import re
from pathlib import Path

import frobjet

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "frobjet").glob("*.py"))
MODULES = {path.stem: importlib.import_module(f"frobjet.{path.stem}")
           for path in SOURCES if path.stem != "__init__"}
NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
MATH = "math notation"
NOT_CODE = {
    "Z_p": MATH, "phi_i": MATH, "Psi": MATH,
    "PASS": "a word tests/test_acceptance.py prints",
    "FAIL": "a word tests/test_acceptance.py prints",
}


def code_names(text: str) -> set:
    """The backticked spans of ``text`` that are (dotted) identifiers."""
    return {span for span in re.findall(r"`([^`\n]+)`", text)
            if NAME.fullmatch(span)}


def source_identifiers(trees) -> set:
    """Every identifier the trees use, and every string constant that is
    one."""
    found = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.arg):
                found.add(node.arg)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found.add(node.name)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.isidentifier()):
                found.add(node.value)
    return found


IDENTIFIERS = source_identifiers(
    ast.parse(path.read_text(), str(path)) for path in SOURCES)


def resolves(name: str, identifiers=IDENTIFIERS) -> bool:
    head, *rest = name.split(".")
    if head == "frobjet":
        obj = frobjet
    elif head in MODULES:
        obj = MODULES[head]
    else:
        owners = [vars(m)[head] for m in MODULES.values() if head in vars(m)]
        if not owners:
            return not rest and (hasattr(builtins, head)
                                 or head in identifiers)
        obj = owners[0]
    for attr in rest:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def unresolved(text: str) -> set:
    return {name for name in code_names(text) if not resolves(name)}


README = (ROOT / "README.md").read_text()


def test_readme_code_names_resolve():
    assert sorted(unresolved(README) - set(NOT_CODE)) == []


def test_not_code_is_exact():
    """Each entry is still in README.md and still resolves to nothing."""
    assert sorted(set(NOT_CODE) - unresolved(README)) == []


def test_readme_rule_catches_stale_names():
    text = ("`PackedVectors.combine`, `polyutils.no_such`, "
            "`Tower.no_such`, `frobjet.no_such`, `NoSuchClass`")
    assert unresolved(text) == {"PackedVectors.combine", "polyutils.no_such",
                                "Tower.no_such", "frobjet.no_such",
                                "NoSuchClass"}


def test_readme_rule_allows_code_and_builtins():
    text = ("`polyutils.fixed_mul`, `Tower.product_rows`, `frobjet.tower`, "
            "`TowerElement.__mul__`, `ValueError`, `len`, `prec`, `verify`, "
            "`x^(q-1)`, `--precision`, `W[pi]/(pi^e - p)`")
    assert code_names(text) == {
        "polyutils.fixed_mul", "Tower.product_rows", "frobjet.tower",
        "TowerElement.__mul__", "ValueError", "len", "prec", "verify"}
    assert unresolved(text) == set()


def test_plain_name_resolves_through_the_source():
    """A plain name that no module defines resolves only through the
    identifiers of the source."""
    tree = ast.parse("def f(depth):\n    return g(depth, 'verify')")
    names = source_identifiers([tree])
    assert {"f", "depth", "g", "verify"} <= names
    assert resolves("depth", identifiers=names)
    assert not resolves("depth", identifiers=set())

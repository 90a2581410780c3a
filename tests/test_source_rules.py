"""Static rules over the package source: no floats and no bare asserts.

Every certificate must hold under ``python -O`` and in exact arithmetic, so
``src/frobjet`` may contain no ``assert`` statement, no float literal, no
call to ``float`` and none of the float functions of :mod:`math`.
``math.inf`` stays allowed: it is the valuation of zero.

The series kernels ``formal.py`` and ``polyutils.py`` and Kedlaya's
reduction in ``crystal.py`` work over Z/p^k only; their exact-``Fraction``
oracles live in ``tests/``, so these modules import nothing from
:mod:`fractions`.

A Newton lift runs on ``polyutils.newton_lengths``, so no ``while`` loop
steps a length by ``k = min(2 * k, n)``: that schedule overshoots to a power
of two before its last step.

The Kronecker format (limb width, packing, evaluation points) stays in
``polyutils.py``: no other module reads a private ``polyutils`` name
(``pu._pack``, ``pu._unpack``, ``pu._limb_bytes``, ...), and none converts
an integer to or from bytes (``to_bytes``, ``from_bytes``), so none packs
inline either; they use ``Packed`` and ``packed_mul`` for series, and
``FoldRows`` and ``fold_combine`` for tower products and sums.  The one
read-back, ``_unpack``, reduces each limb mod the modulus it is given, so
every packed product and sum comes back as residues and no caller reduces
it again.  Tests may still spy on those names.

``cli.py`` never takes an integer flag as a truth value (``args.precision or
12``, ``if args.precision:``): 0 is a value the user gave, and it must reach
the range checks instead of turning into the default.  It reads
``args.precision`` only in ``_precision``, which applies each suite's
default and floor, and in ``_tower_from_args``.

No function imports inside its body: every module says at its top what it
uses.

Every function and method of ``src/frobjet`` has a reader outside ``tests/``:
its name is read somewhere in ``src/frobjet`` or ``perfbench`` other than
its own body.  The rule works by name, so a name read on any object counts;
a method counts as read only through an attribute (``x.name``), never
through a bare local of the same name.  ``__init__.py`` reads nothing: a
re-export makes a name importable, not read.  What only tests read stands
in ``READ_BY_TESTS`` with the reason it stays; that list names exactly the
unread definitions, no more.  A name read only inside a function that never
runs still counts as read here; the run-time rule of ``test_reach.py``
catches such a function, and counts ``READ_BY_TESTS`` as its own list too.

Likewise every parameter with a default is set by some call in
``src/frobjet`` or ``perfbench``, by keyword or by position (a starred
argument sets nothing it can be seen to set).  A default that only tests
override stands in ``SET_BY_TESTS`` with its reason, and that list too is
exact.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import frobjet
from frobjet.cli import _FLAGS

FLOAT_MATH = {"log", "log2", "log10", "sqrt", "exp"}
SERIES_KERNELS = ("crystal.py", "formal.py", "polyutils.py")
ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "frobjet").glob("*.py"))
PROGRAM = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))
INT_FLAGS = {name[2:].replace("-", "_") for name, kw in _FLAGS.items()
             if kw.get("type") is int}


def violations(tree: ast.AST) -> list:
    math_names = {"math"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            math_names |= {a.asname for a in node.names
                           if a.name == "math" and a.asname}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert statement"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append((node.lineno, "call to float"))
        elif (isinstance(node, ast.Attribute) and node.attr in FLOAT_MATH
              and isinstance(node.value, ast.Name)
              and node.value.id in math_names):
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend((node.lineno, f"from math import {a.name}")
                         for a in node.names if a.name in FLOAT_MATH)
    return found


def fraction_imports(tree: ast.AST) -> list:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, f"import {a.name}")
                         for a in node.names
                         if a.name.split(".")[0] == "fractions")
        elif (isinstance(node, ast.ImportFrom) and node.module == "fractions"
              and node.level == 0):
            found.append((node.lineno, "from fractions import"))
    return found


def test_sources_found():
    assert {"formal.py", "polyutils.py", "tower.py"} <= {
        path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_float_no_assert(path):
    assert violations(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize("snippet", [
    "assert x", "y = 0.5", "y = float(x)", "y = math.log(x)",
    "import math as m\ny = m.sqrt(x)", "from math import log2",
    "y = math.exp(1)", "y = math.log10(x)"])
def test_rules_catch(snippet):
    assert violations(ast.parse(snippet))


def test_inf_and_exact_math_allowed():
    assert violations(ast.parse(
        "import math\nINF = math.inf\nk = math.comb(5, 2)\n"
        "from math import gcd")) == []


@pytest.mark.parametrize("name", SERIES_KERNELS)
def test_series_kernels_import_no_fractions(name):
    path = next(path for path in SOURCES if path.name == name)
    assert fraction_imports(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize("snippet", [
    "from fractions import Fraction", "import fractions",
    "import fractions as fr", "def f():\n    from fractions import Fraction"])
def test_fraction_rule_catches(snippet):
    assert fraction_imports(ast.parse(snippet))


def test_fraction_rule_allows_other_imports():
    assert fraction_imports(ast.parse(
        "import math\nfrom decimal import Decimal\n"
        "from .fractions import x")) == []


def doubling_loops(tree: ast.AST) -> list:
    """Lines of ``min(2 * k, ...)`` (or ``k * 2``) inside a ``while`` loop."""
    found = set()
    for loop in ast.walk(tree):
        if not isinstance(loop, ast.While):
            continue
        for node in ast.walk(loop):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "min" and any(
                        isinstance(arg, ast.BinOp)
                        and isinstance(arg.op, ast.Mult)
                        and {type(arg.left), type(arg.right)}
                        == {ast.Constant, ast.Name}
                        and 2 in (getattr(arg.left, "value", None),
                                  getattr(arg.right, "value", None))
                        for arg in node.args)):
                found.add((node.lineno, "length doubled by min(2 * k, ...)"))
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_doubling_newton_loop(path):
    assert doubling_loops(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize("snippet", [
    "while k < n:\n    k = min(2 * k, n)",
    "while k < self.prec:\n    k = min(2 * k, self.prec)",
    "while m < n:\n    m2 = min(2 * m, n)\n    m = m2",
    "while k < n:\n    if k:\n        k = min(k * 2, n)"])
def test_doubling_rule_catches(snippet):
    assert doubling_loops(ast.parse(snippet))


def test_doubling_rule_allows_schedule_and_other_min():
    assert doubling_loops(ast.parse(
        "for k in newton_lengths(n):\n    x = f(x, k)\n"
        "while n > 1:\n    n = (n + 1) // 2\n"
        "while x:\n    y = min(3 * x, n)\n    x = min(2, x - 1)")) == []


def int_flag_truth_tests(tree: ast.AST) -> list:
    """Lines where ``args.<flag>`` of an integer flag is a truth value: an
    operand of ``or``/``and``/``not`` or the test of ``if``, ``while``, a
    conditional expression or a comprehension filter."""
    tested = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BoolOp):
            tested.extend(node.values)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            tested.append(node.operand)
        elif isinstance(node, (ast.If, ast.While, ast.IfExp)):
            tested.append(node.test)
        elif isinstance(node, ast.comprehension):
            tested.extend(node.ifs)
    return sorted((node.lineno, f"truth value of args.{node.attr}")
                  for node in tested
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "args" and node.attr in INT_FLAGS)


def test_int_flags_declared():
    assert {"precision", "threshold", "nmax", "seed"} <= INT_FLAGS


def test_cli_tests_no_int_flag_for_truth():
    path = next(path for path in SOURCES if path.name == "cli.py")
    assert int_flag_truth_tests(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize("snippet", [
    "K = args.precision or 12", "if args.precision:\n    pass",
    "ok = args.threshold and x", "ok = not args.nmax",
    "K = args.precision if args.precision else 12",
    "while args.seed:\n    pass", "x = [k for k in y if args.indep_order]"])
def test_int_flag_rule_catches(snippet):
    assert int_flag_truth_tests(ast.parse(snippet))


def test_int_flag_rule_allows_none_tests_and_other_flags():
    assert int_flag_truth_tests(ast.parse(
        "K = 12 if args.precision is None else args.precision\n"
        "if args.precision is not None:\n    pass\n"
        "path = args.config or default\n"
        "if args.catalog:\n    pass\n"
        "K = other.precision or 12")) == []


PRECISION_READERS = ("_precision", "_tower_from_args")


def precision_reads(tree: ast.AST) -> list:
    """Lines that read ``args.precision`` outside the two helpers that
    turn it into a K: ``_precision`` (default and floor) and
    ``_tower_from_args`` (the --config tower)."""
    allowed = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.FunctionDef)
                and node.name in PRECISION_READERS):
            allowed |= {id(sub) for sub in ast.walk(node)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr == "precision"
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "args" and id(node) not in allowed)


def test_cli_reads_precision_in_one_place():
    path = next(path for path in SOURCES if path.name == "cli.py")
    assert precision_reads(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize("snippet", [
    "def suite_x(args):\n    K = 12 if args.precision is None "
    "else args.precision",
    "K = args.precision",
    "def suite_x(args):\n    if args.precision < 5:\n        raise E",
    "def _precision_floor(args):\n    return args.precision"])
def test_precision_rule_catches(snippet):
    assert precision_reads(ast.parse(snippet))


def test_precision_rule_allows_helpers_and_other_names():
    assert precision_reads(ast.parse(
        "def _precision(args, default, floor):\n"
        "    K = default if args.precision is None else args.precision\n"
        "def _tower_from_args(args, cfg):\n"
        "    if args.precision is not None:\n        return args.precision\n"
        "def suite_x(args):\n"
        "    K = _precision(args, 12, 2)\n"
        "    t = args.threshold\n"
        "    c = cc.precision\n")) == []


def private_polyutils_reads(tree: ast.AST) -> list:
    """Lines that read a private ``polyutils`` name: ``pu._x`` through any
    name the module binds to ``polyutils``, ``frobjet.polyutils._x``, or
    ``from .polyutils import _x``."""
    aliases, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names
                        if a.name.endswith("polyutils") and a.asname}
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "polyutils":
                found.extend((node.lineno, f"import of polyutils.{a.name}")
                             for a in node.names if a.name.startswith("_"))
            aliases |= {a.asname or a.name for a in node.names
                        if a.name == "polyutils"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and (isinstance(node.value, ast.Name)
                     and node.value.id in aliases
                     or isinstance(node.value, ast.Attribute)
                     and node.value.attr == "polyutils")):
            found.append((node.lineno, f"polyutils.{node.attr}"))
    return sorted(found)


@pytest.mark.parametrize("path", [path for path in SOURCES
                                  if path.name != "polyutils.py"],
                         ids=lambda path: path.name)
def test_kronecker_format_stays_in_polyutils(path):
    assert private_polyutils_reads(ast.parse(path.read_text(), str(path))) \
        == []


@pytest.mark.parametrize("snippet", [
    "from . import polyutils as pu\nw = pu._limb_bytes(m, n)",
    "from . import polyutils\nx = polyutils._pack(a, m, w)",
    "from .polyutils import _unpack",
    "from frobjet.polyutils import KS2_MIN_TERMS, _pack",
    "import frobjet.polyutils as P\nf = P._unpack",
    "import frobjet.polyutils\nx = frobjet.polyutils._pack(a, m, w)",
    "def f(a):\n    from . import polyutils as q\n    return q._pack(a, 5)"])
def test_kronecker_rule_catches(snippet):
    assert private_polyutils_reads(ast.parse(snippet))


def test_kronecker_rule_allows_public_names_and_other_privates():
    assert private_polyutils_reads(ast.parse(
        "from . import polyutils as pu\n"
        "from .formal import _pack\n"
        "x = pu.packed_mul(pu.Packed(a, m, n), y, n)\n"
        "k = pu.KS2_MIN_TERMS\n"
        "self._packed = _pack(a, D)\n"
        "name = pu.__name__\n"
        "y = other._unpack(x)")) == []


BYTE_CONVERSIONS = {"to_bytes", "from_bytes"}


def byte_conversions(tree: ast.AST) -> list:
    """Lines that name ``to_bytes`` or ``from_bytes``, called or not, on any
    object or through ``from ... import``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in BYTE_CONVERSIONS:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            found.extend((node.lineno, a.name) for a in node.names
                         if a.name in BYTE_CONVERSIONS)
    return sorted(found)


@pytest.mark.parametrize("path", [path for path in SOURCES
                                  if path.name != "polyutils.py"],
                         ids=lambda path: path.name)
def test_limbs_are_packed_only_in_polyutils(path):
    assert byte_conversions(ast.parse(path.read_text(), str(path))) == []


def test_byte_rule_finds_polyutils_packing():
    """The rule sees the packing that polyutils does, so it is not blind."""
    path = next(path for path in SOURCES if path.name == "polyutils.py")
    assert {name for _, name in byte_conversions(
        ast.parse(path.read_text(), str(path)))} == BYTE_CONVERSIONS


@pytest.mark.parametrize("snippet", [
    "big = int.from_bytes(b''.join([(c % m).to_bytes(w, 'little')\n"
    "                              for c in row]), 'little')",
    "raw = (x * y).to_bytes(w * n, 'little')",
    "fb = int.from_bytes\nv = [fb(raw[k:k + w], 'little') for k in ks]",
    "limbs = [c.to_bytes(8) for c in a]",
    "from builtins import int as I\nv = I.from_bytes(b, 'big')"])
def test_byte_rule_catches_inline_pack(snippet):
    assert byte_conversions(ast.parse(snippet))


def test_byte_rule_allows_other_names():
    assert byte_conversions(ast.parse(
        "x = pu.FoldRows(rows, pk, p).mul(y)\n"
        "n = x.bit_length()\nb = bytes(4)\nto_bytes = 3")) == []


def function_imports(tree: ast.AST) -> list:
    """(line, function, module) of each import inside a function body; a
    nested function's import is named after the innermost function."""
    found = {}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Import):
                for a in node.names:
                    found[node.lineno, a.name] = fn.name
            elif isinstance(node, ast.ImportFrom):
                found[node.lineno, node.module or "."] = fn.name
    return sorted((line, fn, module) for (line, module), fn in found.items())


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_at_module_top(path):
    assert function_imports(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize("snippet", [
    "def f():\n    import itertools",
    "def f(x):\n    from .sertate import verify_identity\n    return x",
    "def f():\n    from . import polyutils as pu",
    "class A:\n    def m(self):\n        from itertools import combinations",
    "def f():\n    def g():\n        import os\n    return g",
    "async def f():\n    import json",
    "def f():\n    if x:\n        from .tower import QElement"])
def test_import_rule_catches(snippet):
    assert function_imports(ast.parse(snippet))


def test_import_rule_allows_module_level_imports():
    assert function_imports(ast.parse(
        "import json\nfrom itertools import combinations\n"
        "from .tower import QElement\n"
        "if TYPE_CHECKING:\n    from .jets import JetRing\n"
        "class A:\n    x = 1\n"
        "def f(name):\n    return importlib.import_module(name)")) == []


ROUTE = "a route by which tests check production code: "
ACCESSOR = "a read accessor that hides "
CLAIM = "a claim of the paper, waiting for a verify suite that reports it"
# (module, qualified name) -> why only tests read it
READ_BY_TESTS = {
    ("jets", "eval_jet"): ROUTE + "jet values against tower arithmetic",
    ("jets", "delta_operator"): ROUTE + "checked against tower.pi_derivation",
    ("jets", "SparseSeries.truncate"): ROUTE + "series cut to a lower degree",
    ("sertate", "STSeries.substitute"): ROUTE + "exact series composition",
    ("sertate", "PsiPoly.swap12"): ROUTE + "called by tests/sertate_oracle.py",
    ("symbols", "sym_mul"): ROUTE + "sym_eval is a ring homomorphism",
    ("formal", "FormalGroupLaw.add_points"): ROUTE + "psi_series on points",
    ("tower", "TowerElement.equals"): ACCESSOR + "the shared precision",
    ("tower", "TowerElement.inverse"):
        "the span tracer's layer tower.inverse, and tests/tower_oracle.py",
    ("formal", "l_mu_series"): CLAIM,
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(tree: ast.AST, prefix: str = "",
                in_class: bool = False) -> list:
    """(qualified name, node, read as) of every function and method in
    ``tree``; a nested definition is named through its class or function.
    A function is read as its name, a method as ``.name``: only through an
    attribute."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, FUNCTIONS):
            found.append((prefix + node.name, node,
                          "." * in_class + node.name))
        inner = (prefix + node.name + "."
                 if isinstance(node, (*FUNCTIONS, ast.ClassDef)) else prefix)
        found.extend(definitions(
            node, inner, isinstance(node, ast.ClassDef)
            or in_class and not isinstance(node, FUNCTIONS)))
    return found


def names_read(tree: ast.AST) -> Counter:
    """How often each name is read: as a name, as an attribute, or in a
    ``from ... import``.  A read as an attribute also counts as ``.name``."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts.update((node.attr, "." + node.attr))
        elif isinstance(node, ast.ImportFrom):
            counts.update(a.name for a in node.names)
    return counts


def package_reads(trees: dict) -> Counter:
    """The reads of ``trees`` (path -> tree), ``__init__.py`` aside."""
    return sum((names_read(tree) for path, tree in trees.items()
                if path.name != "__init__.py"), Counter())


def unread_definitions(tree: ast.AST, reads: Counter) -> list:
    """Qualified names of the functions and methods in ``tree``, dunders
    aside, that ``reads`` (which counts ``tree`` too) reads only inside
    their own body."""
    return [name for name, node, key in definitions(tree)
            if not (node.name.startswith("__") and node.name.endswith("__"))
            and reads[key] == names_read(node)[key]]


PROGRAM_TREES = {path: ast.parse(path.read_text(), str(path))
                 for path in PROGRAM}
PROGRAM_READS = package_reads(PROGRAM_TREES)


def unread_in_program() -> set:
    return {(path.stem, name) for path in SOURCES
            for name in unread_definitions(PROGRAM_TREES[path], PROGRAM_READS)}


def test_program_found():
    assert {"cli.py", "tower.py", "workloads.py", "run.py"} <= {
        path.name for path in PROGRAM}


def test_every_definition_has_a_reader():
    assert sorted(unread_in_program() - set(READ_BY_TESTS)) == []


def test_read_by_tests_is_exact():
    """Each entry is still defined, and still read by nothing but tests."""
    defined = {(path.stem, name) for path in SOURCES
               for name, _, _ in definitions(PROGRAM_TREES[path])}
    assert sorted(set(READ_BY_TESTS) - defined) == []
    assert sorted(set(READ_BY_TESTS) - unread_in_program()) == []


def test_package_exports_resolve():
    """``frobjet.__all__`` names each export once, and each one exists."""
    assert len(set(frobjet.__all__)) == len(frobjet.__all__)
    assert [name for name in frobjet.__all__
            if not hasattr(frobjet, name)] == []


def unread(snippet: str, *readers) -> list:
    """The unread definitions of ``snippet``, read by itself and by
    ``readers``: each a source, or a (file name, source) pair."""
    tree = ast.parse(snippet)
    trees = {Path("snippet.py"): tree}
    for i, reader in enumerate(readers):
        name, source = (reader if isinstance(reader, tuple)
                        else (f"reader{i}.py", reader))
        trees[Path(name)] = ast.parse(source)
    return unread_definitions(tree, package_reads(trees))


@pytest.mark.parametrize("snippet,names", [
    ("def f():\n    return 1", ["f"]),
    ("async def f():\n    return 1", ["f"]),
    ("def f(n):\n    return f(n - 1) if n else 0", ["f"]),
    ("class A:\n    def m(self):\n        return self.m", ["A.m"]),
    ("class A:\n    @classmethod\n    def make(cls):\n        pass\n"
     "    @property\n    def size(self):\n        pass",
     ["A.make", "A.size"]),
    ("def f():\n    def g():\n        pass\n    return 1", ["f", "f.g"]),
    ("if X:\n    def f():\n        pass", ["f"]),
    ("class A:\n    def letter(self):\n        pass\n"
     "for letter in word:\n    x = letter", ["A.letter"]),
    pytest.param(("def f():\n    pass",
                  ("__init__.py", "from .snippet import f\n__all__ = ['f']")),
                 ["f"], id="read only by an __init__ re-export")],
    ids=lambda v: ",".join(v) if isinstance(v, list) else None)
def test_unread_rule_catches(snippet, names):
    snippet, *readers = snippet if isinstance(snippet, tuple) else (snippet,)
    assert unread(snippet, *readers) == names


def test_unread_rule_allows_reads_and_dunders():
    assert unread(
        "def f():\n    return g()\n"
        "def g():\n    pass\n"
        "class A:\n"
        "    def __len__(self):\n        return 0\n"
        "    def m(self):\n        pass\n"
        "    @property\n    def size(self):\n        pass\n"
        "def h():\n    pass\n"
        "def k():\n    pass\n",
        "from frobjet.mod import f", "a.m()\nn = a.size", "run(h)",
        "x = [k]") == []


# (module, qualified name, parameter) -> why only tests set it
SET_BY_TESTS = {
    ("cli", "main", "argv"):
        "tests pass the arguments; the console script reads sys.argv",
    ("crystal", "kedlaya_frobenius", "series_pad"):
        "the deeper-series and Fraction-oracle tests run past the cut depth",
    ("sertate", "PsiPoly.slot", "value"):
        "tests/sertate_oracle.py writes slots with a rational coefficient",
    ("tower", "Tower.pi", "prec"): "tests build pi below the tower's K",
    ("tower", "Tower.zeta", "prec"): "tests build zeta below the tower's K",
    ("tower", "Tower.random_unit", "prec"):
        "tests draw units below the tower's K",
    ("tower", "TowerElement.equals", "precision"):
        "tests compare fewer digits than the shared precision",
}


def defaulted_parameters(tree: ast.AST, prefix: str = "",
                         owner: str | None = None) -> list:
    """(qualified name, called as, parameter, position) of every parameter
    with a default.  A function is called as its name and ``__init__`` as
    its class.  The position counts the arguments a call passes before it,
    ``self`` and ``cls`` aside; it is None for a keyword-only parameter."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, FUNCTIONS):
            args, name = node.args, prefix + node.name
            positional = args.posonlyargs + args.args
            bound = owner is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in node.decorator_list)
            called = owner if owner and node.name == "__init__" else node.name
            first = len(positional) - len(args.defaults)
            found += [(name, called, a.arg, i - bound)
                      for i, a in enumerate(positional) if i >= first]
            found += [(name, called, a.arg, None)
                      for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            found += defaulted_parameters(
                node, prefix + node.name + ".",
                node.name if isinstance(node, ast.ClassDef) else None)
    return found


def call_shapes(tree: ast.AST, owner: str | None = None) -> list:
    """(called name, positional count, keywords) of every call.  Arguments
    from the first starred one on are not counted; ``cls(...)`` and
    ``type(x)(...)`` inside a class call that class."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name):
                name = owner if f.id == "cls" else f.id
            elif isinstance(f, ast.Attribute):
                name = f.attr
            else:
                name = owner if (isinstance(f, ast.Call)
                                 and isinstance(f.func, ast.Name)
                                 and f.func.id == "type") else None
            starred = [i for i, a in enumerate(node.args)
                       if isinstance(a, ast.Starred)]
            found.append((name, starred[0] if starred else len(node.args),
                          {k.arg for k in node.keywords}))
        found += call_shapes(
            node, node.name if isinstance(node, ast.ClassDef) else owner)
    return found


def unset_defaults(tree: ast.AST, calls: list) -> list:
    """(qualified name, parameter) of the defaults in ``tree`` that none of
    ``calls`` sets."""
    return [(name, param)
            for name, called, param, pos in defaulted_parameters(tree)
            if not any(c == called and (param in kws
                                         or pos is not None and n > pos)
                       for c, n, kws in calls)]


PROGRAM_CALLS = [c for tree in PROGRAM_TREES.values()
                 for c in call_shapes(tree)]


def unset_in_program() -> set:
    return {(path.stem, *entry) for path in SOURCES
            for entry in unset_defaults(PROGRAM_TREES[path], PROGRAM_CALLS)}


def test_every_default_is_set_by_the_program():
    assert sorted(unset_in_program() - set(SET_BY_TESTS)) == []


def test_set_by_tests_is_exact():
    """Each entry is still a defaulted parameter that only tests set."""
    defaulted = {(path.stem, name, param) for path in SOURCES
                 for name, _, param, _ in defaulted_parameters(
                     PROGRAM_TREES[path])}
    assert sorted(set(SET_BY_TESTS) - defaulted) == []
    assert sorted(set(SET_BY_TESTS) - unset_in_program()) == []


def unset(snippet: str, *callers: str) -> list:
    tree = ast.parse(snippet)
    calls = call_shapes(tree) + [c for r in callers
                                 for c in call_shapes(ast.parse(r))]
    return unset_defaults(tree, calls)


@pytest.mark.parametrize("snippet,names", [
    ("def f(x, k=1):\n    return x", [("f", "k")]),
    ("def f(x, k=1):\n    return x\ny = f(2)", [("f", "k")]),
    ("def f(a, *, k=1):\n    pass\nf(1, 2)", [("f", "k")]),
    ("def slot(name, value=1):\n    pass\nslot(*v)\nslot(n, *v)",
     [("slot", "value")]),
    ("def f(a, k=1):\n    pass\nf(1, **opts)", [("f", "k")]),
    ("class A:\n    def m(self, k=1):\n        pass\nA().m()",
     [("A.m", "k")]),
    ("class A:\n    def __init__(self, k=0):\n        pass\nA()",
     [("A.__init__", "k")]),
    ("class A:\n    @staticmethod\n    def s(a, k=1):\n        pass\n"
     "A.s(1)", [("A.s", "k")]),
    ("class A:\n    @classmethod\n    def make(cls, a, k=1):\n"
     "        pass\nA.make(1)", [("A.make", "k")]),
    ("def f():\n    def g(k=1):\n        pass\n    return g()",
     [("f.g", "k")])],
    ids=lambda v: ",".join(map(".".join, v)) if isinstance(v, list)
    else None)
def test_default_rule_catches(snippet, names):
    assert unset(snippet) == names


def test_default_rule_allows_every_way_to_set():
    assert unset(
        "def f(x, k=1, *, t=None):\n    pass\n"
        "class A:\n"
        "    def __init__(self, n=0):\n        pass\n"
        "    def m(self, k=1):\n        pass\n"
        "    @classmethod\n    def make(cls, a=1):\n        return cls(a)\n"
        "    @staticmethod\n    def s(a, b=2):\n        pass\n"
        "class B:\n"
        "    def __init__(self, r, d=0):\n        pass\n"
        "    def copy(self):\n        return type(self)(self.r, self.d)\n",
        "f(1, 2, t=3)", "A().m(k=2)", "A.make(5)", "A.s(1, 2)",
        "f(*xs, k=2)") == []

"""Run-time reach rule: every function of ``src/frobjet`` runs in a program run.

The static reader rule of ``test_source_rules.py`` cannot see a function
whose only reader is itself never run.  This rule runs the program's entry
points under :func:`sys.setprofile`: the seven ``frobjet verify`` suites at
their defaults, ``frobjet tower-info`` with and without ``--config``, and one
``workloads.SMALL`` round of each benchmark workload, set-up included.  A
function is keyed by its file and first line (its first decorator's line)
and named as ``test_source_rules.definitions`` names it.

Every function that none of these runs calls, ``__repr__`` aside, stands in
``READ_BY_TESTS`` (which counts for both rules) or in ``RUN_BY_TESTS`` with
the reason it stays.  ``RUN_BY_TESTS`` holds only functions that the program
reads but never runs, and it names exactly the unreached ones, no more.
``perfbench/workloads.py`` imports only the standard library and frobjet,
so it is loaded here by path.
"""

import ast
import importlib.util
import os
import sys
from pathlib import Path

import pytest

from frobjet.cli import SUITES, main
from test_source_rules import (READ_BY_TESTS, ROOT, ROUTE, SOURCES,
                               definitions)

WORKLOADS = ROOT / "perfbench" / "workloads.py"

POINTS = "the point evaluation, for a verify manin suite to reach"
# (module, qualified name) -> why no program run calls it
RUN_BY_TESTS = {
    ("tower", "TowerElement.at_precision"):
        "called only by TowerElement.inverse",
    ("tower", "pi_derivation"): POINTS,
    ("tower", "TowerElement.divide_by_pi"): POINTS,
    ("jets", "eval_jet.delta_value"): POINTS,
    ("jets", "SparseSeries.__pow__"): POINTS,
    ("formal", "_normalize_integral"): POINTS,
    ("sertate", "STSeries.__eq__"): ROUTE + "exact series equality",
    ("tower", "TowerElement.__rsub__"): ROUTE + "an int less an element",
    ("jets", "SeriesRing.zero"): ROUTE + "the zero series",
    ("jets", "JetElement.to_dict"): ROUTE + "the golden jet digests",
}


def collect(run) -> set:
    """(real file name, first line) of every Python function that ``run()``
    calls; any profiler set before is restored."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return {(os.path.realpath(code.co_filename), code.co_firstlineno)
            for code in codes}


def unreached(paths, ran: set) -> list:
    """(module, qualified name) of each function in ``paths`` whose key is
    not in ``ran``, ``__repr__`` aside."""
    found = []
    for path in paths:
        file = os.path.realpath(path)
        for name, node, _ in definitions(ast.parse(path.read_text(), file)):
            first = min([node.lineno] + [d.lineno
                                         for d in node.decorator_list])
            if node.name != "__repr__" and (file, first) not in ran:
                found.append((path.stem, name))
    return found


def load_workloads():
    spec = importlib.util.spec_from_file_location("_reach_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def program_runs(tmp: Path) -> None:
    """The entry points of the rule, each checked to pass."""
    for suite in SUITES:
        assert main(["verify", suite, "--out", str(tmp / suite)]) == 0
    config = tmp / "tower.cfg"
    config.write_text("p = 5\nl = 2\nm = 2\nf = 1\nK = 6\n")
    assert main(["tower-info", "--out", str(tmp / "info")]) == 0
    assert main(["tower-info", "--config", str(config),
                 "--out", str(tmp / "info-config")]) == 0
    workloads = load_workloads()
    for name in workloads.WORKLOADS:
        for job in workloads.prepare(name, 1, workloads.SMALL):
            assert job.run() == []


@pytest.fixture(scope="module")
def unreached_in_program(tmp_path_factory):
    # a memo filled by an earlier test would hide the function it wraps
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("frobjet."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    tmp = tmp_path_factory.mktemp("reach")
    return set(unreached(SOURCES, collect(lambda: program_runs(tmp))))


def test_every_function_runs(unreached_in_program):
    listed = set(READ_BY_TESTS) | set(RUN_BY_TESTS)
    assert sorted(unreached_in_program - listed) == []


def test_run_by_tests_is_exact(unreached_in_program):
    """Each entry is still defined, still unreached and read by the
    program; an entry of ``READ_BY_TESTS`` is still unreached too."""
    defined = {(path.stem, name) for path in SOURCES
               for name, _, _ in definitions(ast.parse(path.read_text()))}
    assert sorted(set(RUN_BY_TESTS) - defined) == []
    assert sorted(set(RUN_BY_TESTS) & set(READ_BY_TESTS)) == []
    assert sorted((set(RUN_BY_TESTS) | set(READ_BY_TESTS))
                  - unreached_in_program) == []
    assert all(RUN_BY_TESTS.values())


SNIPPET = '''\
import functools


def called():
    def inner():
        return 1

    def inner_never():
        return 2

    return inner()


def never():
    return 3


class A:
    def method(self):
        return called()

    @functools.cache
    def cached(self):
        return 4

    @staticmethod
    def idle():
        return 5

    def __repr__(self):
        return "A"

    def __len__(self):
        return 0


def run():
    a = A()
    return a.method() + a.cached()
'''


def test_reach_rule_catches(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET)
    spec = importlib.util.spec_from_file_location("_reach_snippet", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    ran = collect(module.run)
    assert unreached([path], ran) == [
        ("snippet", "called.inner_never"), ("snippet", "never"),
        ("snippet", "A.idle"), ("snippet", "A.__len__")]


def test_reach_rule_restores_the_previous_profiler():
    def outer(frame, event, arg):
        pass

    sys.setprofile(outer)
    try:
        collect(lambda: None)
        assert sys.getprofile() is outer
    finally:
        sys.setprofile(None)

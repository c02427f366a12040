"""Every exported name resolves, so a stale export of deleted code fails;
every export has a user; and one pair of helpers owns the library's argument
refusals."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import graphalign
from graphalign import datasets

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["graphalign"] + [
    f"graphalign.{info.name}" for info in pkgutil.iter_modules(graphalign.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names undefined attributes: {missing}"


def test_every_export_has_a_user():
    """The package exports what the CLI, the README, the acceptance tests and
    the benchmark use: each name is a whole word in the first three, or is
    read as `ga.<name>` or `graphalign.<name>` by perfbench. The names that
    perfbench/spans.py wraps are module attributes and do not count; helpers
    stay importable from their submodules."""
    words = "\n".join((ROOT / name).read_text(encoding="utf-8") for name in (
        "src/graphalign/cli.py", "README.md", "tests/test_acceptance.py"))
    bench = "\n".join(path.read_text(encoding="utf-8") for pattern in (
        "perfbench/*.py", "perfbench/tests/*.py") for path in sorted(ROOT.glob(pattern)))
    unused = [name for name in graphalign.__all__
              if not re.search(rf"\b{name}\b", words)
              and not re.search(rf"\b(ga|graphalign)\.{name}\b", bench)]
    assert not unused, f"exported but used by none of the package's users: {unused}"


def test_one_owner_of_argument_refusals():
    """Outside `_integer` and `_choice`, no module but the CLI (whose
    argparse types turn text into usage errors) names `Integral` or builds
    an "unknown ..." message, so one rule decides what a count, seed or
    name is."""
    helpers = [inspect.getsource(f) for f in (datasets._integer, datasets._choice)]
    offenders = []
    for path in sorted(Path(graphalign.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        text = path.read_text(encoding="utf-8")
        for source in helpers:
            text = text.replace(source, "")
        if "Integral" in text or re.search(r"""["']unknown """, text):
            offenders.append(path.name)
    assert not offenders, f"argument checks outside the two helpers in {offenders}"

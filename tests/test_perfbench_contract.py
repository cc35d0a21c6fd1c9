"""The package names that perfbench uses must exist.

``perfbench/spans.py`` wraps package functions by (module, attribute) at
run time, and the other perfbench modules import package names and read
attributes of package modules. Deleting or renaming one of those names
breaks the benchmark without failing any other test here. perfbench is not
an installed package, so its modules are loaded or parsed by path.
"""

import ast
import glob
import importlib
import importlib.util
import os
import types

import sphdwi

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
SPANS = os.path.join(PERFBENCH, "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = _load_spans().TARGETS
    assert targets
    missing = [
        f"{mod}.{attr}" for mod, attr, *_ in targets
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert missing == []


def test_worker_records_default_backend():
    assert sphdwi.default_backend() == "numpy"


def _import(name):
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError:
        return None


def _lookup(module, name):
    """``module.name``, importing it if it is a submodule; None if it does not exist."""
    if hasattr(module, name):
        return getattr(module, name)
    return _import(f"{module.__name__}.{name}")


def _package_names(source):
    """(checked, missing): the package names ``source`` uses, and those that do not exist.

    A name is used by ``from sphdwi... import X``, ``import sphdwi...``, or
    ``m.attr`` where ``m`` is bound to a package module by an import anywhere
    in the source; perfbench imports the package inside functions, under the
    modules' own names.
    """
    tree = ast.parse(source)
    modules, checked, missing = {}, set(), set()

    def use(name, value):
        checked.add(name)
        if value is None:
            missing.add(name)
        return value if isinstance(value, types.ModuleType) else None

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sphdwi":
                    module = use(alias.name, _import(alias.name))
                    # "import sphdwi.cli" binds sphdwi, "import sphdwi.cli as c" binds c
                    if module is not None:
                        modules[alias.asname or "sphdwi"] = module if alias.asname else sphdwi
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sphdwi":
            module = use(node.module, _import(node.module))
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                value = use(name, module and _lookup(module, alias.name))
                if value is not None:
                    modules[alias.asname or alias.name] = value

    def resolve(expr):
        # the package module a Name/Attribute chain names, or None
        if isinstance(expr, ast.Name):
            return modules.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = resolve(expr.value)
            if base is not None:
                return use(f"{base.__name__}.{expr.attr}", _lookup(base, expr.attr))
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            resolve(node)
    return checked, missing


def test_every_package_name_perfbench_uses_resolves():
    sources = sorted(glob.glob(os.path.join(PERFBENCH, "*.py")))
    checked, missing = set(), {}
    for path in sources:
        with open(path) as fh:
            names, gone = _package_names(fh.read())
        checked |= names
        if gone:
            missing[os.path.basename(path)] = sorted(gone)
    assert checked
    assert missing == {}


def test_unknown_package_names_are_reported():
    source = (
        "import sphdwi\n"
        "from sphdwi import lsc\n"
        "from sphdwi.bench import naive_signal_to_sh, nope\n"
        "from sphdwi.gone import x\n"
        "def f():\n"
        "    return lsc.LscKernel, lsc.Nope, sphdwi.shcore.ring_directions, sphdwi.shcore.lost\n"
    )
    checked, missing = _package_names(source)
    assert missing == {"sphdwi.bench.nope", "sphdwi.gone", "sphdwi.gone.x", "sphdwi.lsc.Nope",
                       "sphdwi.shcore.lost"}
    assert {"sphdwi.bench.naive_signal_to_sh", "sphdwi.lsc.LscKernel",
            "sphdwi.shcore.ring_directions"} <= checked

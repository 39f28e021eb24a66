"""The import graph between the package's modules.

``core``, ``numtheory`` and ``report`` are the bottom layer and import no
sibling; ``bands`` and ``gaps`` build on them alone, and the brute-force
``oracle`` reads only ``core`` and ``bands``.  ``cli`` and ``__init__``
are the top and may import anything.  Every name the package re-exports is
in its module's ``__all__``, and every ``__all__`` entry exists, since
``bench/tracer.py`` wraps public functions by ``__all__`` and silently
skips a name it cannot find.  For the same reason every hook of
``bench/layers.py`` names such a function, and the CLI hands the CSV writer
the seekable stream whose ``tell()`` that hook reads.  No private function
or class serves the tests alone: each is read somewhere in the package.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest
from click.testing import CliRunner

import hexband
import hexband.cli

PACKAGE = Path(hexband.__file__).parent
BENCH_LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))
ALLOWED = {
    "core": set(),
    "numtheory": set(),
    "report": set(),
    "bands": {"core", "numtheory", "report"},
    "gaps": {"core", "numtheory", "report"},
    "oracle": {"core", "bands"},
}


def sibling_imports(module: str) -> set[str]:
    """The sibling modules ``module`` imports, relatively or by absolute name.

    A name imported from the package itself, such as ``from . import
    __version__``, counts as importing ``__init__``.
    """
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["hexband" if node.level else "", node.module]))
            targets = ([f"{base}.{alias.name}" for alias in node.names] if base == "hexband"
                       else [base])
        else:
            continue
        for parts in (target.split(".") for target in targets):
            if parts[0] == "hexband":
                found.add(parts[1] if len(parts) > 1 and parts[1] in MODULES else "__init__")
    return found - {module}


def test_every_layered_module_exists():
    assert set(ALLOWED) <= set(MODULES)


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_imports_only_lower_layers(module):
    assert sibling_imports(module) <= ALLOWED[module]


def test_the_parser_sees_the_top_layer():
    assert {"core", "bands", "gaps", "oracle", "report"} <= sibling_imports("cli")
    assert "__init__" in sibling_imports("cli")  # from . import __version__


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_every_public_name_is_defined(module):
    namespace = importlib.import_module(f"hexband.{module}")
    assert [name for name in namespace.__all__ if not hasattr(namespace, name)] == []


def test_the_package_reexports_only_public_names():
    imports = [node for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module]
    assert {node.module for node in imports} == set(ALLOWED)
    for node in imports:
        public = importlib.import_module(f"hexband.{node.module}").__all__
        assert [alias.name for alias in node.names if alias.name not in public] == [], node.module


def is_click_command(node: ast.FunctionDef | ast.ClassDef) -> bool:
    """A function registered by ``@<group>.command(...)``, which click calls by its name."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr == "command" for d in node.decorator_list)


def test_every_private_definition_is_read_by_the_package():
    # a top-level function or class outside its module's __all__ is referenced by
    # name (a Name or an attribute, not text) in package code outside its own body
    statements, definitions = [], []
    for module in MODULES:
        namespace = importlib.import_module(f"hexband.{module}")
        for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
            statements.append(node)
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name not in getattr(namespace, "__all__", ())
                    and not is_click_command(node)):
                definitions.append((module, node))
    names_in = {id(node): {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                           if isinstance(n, (ast.Name, ast.Attribute))} for node in statements}
    orphans = [f"{module}.{node.name}" for module, node in definitions
               if not any(node.name in names_in[id(other)] for other in statements
                          if other is not node)]
    assert orphans == []


def bench_hook_names() -> list[str]:
    """The keys of the ``HOOKS`` dict of ``bench/layers.py``, read without importing it."""
    for node in ast.parse(BENCH_LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["HOOKS"]:
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("bench/layers.py assigns no HOOKS dict")


def test_every_benchmark_hook_names_a_traced_function():
    names = bench_hook_names()
    assert "report.write_samples_csv" in names
    for name in names:
        layer, attribute = name.split(".")
        module = importlib.import_module(f"hexband.{layer}")
        function = getattr(module, attribute, None)
        assert inspect.isfunction(function) and function.__module__ == module.__name__, name
        assert attribute in module.__all__, name


def test_the_cli_hands_the_csv_writer_a_stream_with_tell(monkeypatch):
    positions = []
    write = hexband.cli.write_samples_csv

    def traced(table, stream):
        positions.append(stream.tell())
        write(table, stream)

    monkeypatch.setattr(hexband.cli, "write_samples_csv", traced)
    result = CliRunner().invoke(hexband.cli.cli, [
        "bands", "--a", "1", "--b", "1", "--c", "1", "--alpha", "-3", "--kmax", "5",
        "--samples", "50", "--include-negative", "--format", "csv"])
    assert result.exit_code == 0, result.output
    assert len(positions) == 2 and positions[1] > positions[0] == 0
    assert result.output.count("\n") == 2 * 51

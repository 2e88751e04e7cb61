"""The host benchmark's import surface must resolve.

``benchmarks/host`` is frozen between PRs (``BENCHMARK.json``) and runs
against whatever ``src/repro`` the checkout holds, so a refactor that
renames or drops a name it imports only finds out when the benchmark
is run.  This parses those files and resolves every ``repro`` import.
"""

import ast
import importlib
from pathlib import Path

import pytest

HOSTBENCH = sorted(
    (Path(__file__).parent.parent / "benchmarks" / "host").glob("*.py")
)


def _repro_imports(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").split(".")[0] == "repro":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None


@pytest.mark.parametrize("path", HOSTBENCH, ids=lambda p: p.name)
def test_hostbench_repro_imports_resolve(path):
    for module, name in _repro_imports(path):
        mod = importlib.import_module(module)
        if name is None or hasattr(mod, name):
            continue
        # ``from package import submodule``
        importlib.import_module(f"{module}.{name}")


def test_hostbench_present():
    assert {p.name for p in HOSTBENCH} >= {"run.py", "layers.py",
                                           "workloads.py"}

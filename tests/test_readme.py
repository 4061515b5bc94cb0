"""What the README says of the code that a test can check: the library
quick start runs as written, `tests/oracles.py` uses no package helper, and
the Layout block names every package module."""

import ast
import itertools
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quick_start() -> str:
    """The README's "Quick start (library)" code, cut as the CI step's awk
    cuts it: from that heading on, the lines after the first ```python
    fence, up to the first bare ``` fence."""
    lines, started, inside = [], False, False
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("## Quick start (library)"):
            started = True
        if started and line == "```":
            break
        if started and inside:
            lines.append(line)
        if started and line == "```python":
            inside = True
    return "".join(line + "\n" for line in lines)


def test_library_quick_start_runs(tmp_path):
    code = quick_start()
    assert "evaluate(" in code
    script = tmp_path / "quickstart.py"
    script.write_text(code, encoding="utf-8")
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    # it prints the drop's sum SE and its 10th-percentile SE
    sum_se, p10 = map(float, out.stdout.split())
    assert 0.0 < p10 < sum_se


# what `tests/oracles.py` may take from the package: its data types, and the
# protocol's message kinds
ORACLE_IMPORTS = {
    "pilotsim": {"AssociationMap", "NetworkRealization", "PilotAssignment",
                 "PowerProfile"},
    "pilotsim.protocol": {"KIND_NOTIFY", "KIND_OFFER", "KIND_PROBE"},
}


def test_oracles_import_no_package_function():
    # the oracles are the structurally different path, so they import only
    # the standard library, numpy and the names above: no package function,
    # and no test module that calls one
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text(
        encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update((node.module, alias.name) for alias in node.names)
    assert {(module, name) for module, name in imported
            if module.split(".")[0] not in sys.stdlib_module_names | {"numpy"}
            and name not in ORACLE_IMPORTS.get(module, ())} == set()


def test_layout_names_every_module():
    # the README's Layout block has one entry per package module, whose
    # name starts a line two spaces in under `src/pilotsim/`
    block = (ROOT / "README.md").read_text(encoding="utf-8").split(
        "## Layout\n", 1)[1].split("```\n")[1]
    package = block.split("src/pilotsim/\n", 1)[1]
    section = itertools.takewhile(lambda line: line.startswith(" "),
                                  package.splitlines())
    named = {line.split()[0] for line in section if line[2] != " "}
    modules = {path.name for path in (ROOT / "src" / "pilotsim").glob("*.py")}
    assert named == modules - {"__init__.py"}

"""The package as installed: what importing it loads, and what it declares."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "metagame_forge"


def test_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, metagame_forge, metagame_forge.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")   # Python >= 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = {re.match(r"[A-Za-z0-9_.-]+", req)[0].lower().replace("-", "_")
                    for req in tomllib.load(fh)["project"]["dependencies"]}
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) - {"metagame_forge"} == declared


def test_readme_python_snippet_runs(capsys):
    # README's "From Python" entry point (dim 100, 50 iterations), read from
    # README.md and run as written, so an API change cannot break it
    # unnoticed.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    snippet = re.search(r"From Python:\n\n```python\n(.*?)```", text, re.S)[1]
    exec(compile(snippet, "README.md", "exec"), {})
    assert float(capsys.readouterr().out) >= 0.0

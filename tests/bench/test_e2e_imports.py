"""The end-to-end benchmark must still import against the library.

``benchmarks/e2e`` sits outside ``testpaths`` and only runs as the
benchmark, so deleting or renaming a public name it uses would otherwise
surface only when the benchmark itself fails to start.  Both checks run
in a subprocess: the benchmark edits ``sys.path`` on import, and a fresh
interpreter also catches names that only resolve because some other test
already imported them.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
E2E = ROOT / "benchmarks" / "e2e"
MODULES = sorted(
    p.stem for p in (E2E / "e2ebench").glob("*.py") if p.stem != "__init__"
)


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )


def test_run_help_exits_zero():
    done = _python(str(E2E / "run.py"), "--help")
    assert done.returncode == 0, done.stderr
    assert "--workload" in done.stdout


def test_every_e2ebench_module_imports():
    assert MODULES, "no e2ebench modules found"
    code = (
        "import importlib, sys\n"
        f"sys.path.insert(0, {str(E2E)!r})\n"
        f"for name in {MODULES!r}:\n"
        "    importlib.import_module('e2ebench.' + name)\n"
    )
    done = _python("-c", code)
    assert done.returncode == 0, done.stderr

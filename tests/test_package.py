import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import slipswim

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(m.name for m in pkgutil.iter_modules(slipswim.__path__))


# "" is the package itself, whose names are imported from the submodules on first use
@pytest.mark.parametrize("module", ["", *MODULES], ids=lambda m: m or "slipswim")
def test_all_names_resolve(module):
    mod = importlib.import_module(f".{module}", "slipswim")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{mod.__name__}.__all__ lists missing names {missing}"


def test_import_loads_no_numpy():
    # the CLI caps the BLAS thread pools, which works only before numpy loads
    src = str(Path(slipswim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, slipswim, slipswim.cli; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_readme_python_blocks_run(capsys):
    # the blocks build on each other, so they share one namespace, in order
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_names_resolve():
    names = set(re.findall(r"\bss\.(\w+)", README.read_text(encoding="utf-8")))
    assert names
    assert not [n for n in sorted(names) if not hasattr(slipswim, n)]

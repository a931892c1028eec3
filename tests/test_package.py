import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import slipswim

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(m.name for m in pkgutil.iter_modules(slipswim.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"slipswim.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"slipswim.{module}.__all__ lists missing names {missing}"


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

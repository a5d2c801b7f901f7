import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import mpkrbm

MODULES = sorted(m.name for m in pkgutil.iter_modules(mpkrbm.__path__))


def test_the_package_holds_no_name_but_its_submodules():
    # callers import from the submodules, which keep each function's one name
    names = vars(mpkrbm).items()
    assert [n for n, v in names if not n.startswith("__") and not isinstance(v, ModuleType)] == []


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    # the package's __init__ imports no submodule, so an import cycle among
    # them shows when the module on either side of it is imported first
    env = dict(os.environ, PYTHONPATH=str(Path(mpkrbm.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", f"import mpkrbm.{module}"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr

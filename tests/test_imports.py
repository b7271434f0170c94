"""Every package module imports first in a fresh interpreter, and the exports resolve.

`engine` builds the fan oracle with a function-level import because
`oracle` imports `engine`; a module-level import either way round would be
a cycle that only some import orders hit.
"""

import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import toric_cohomology

SRC = Path(toric_cohomology.__file__).resolve().parents[1]
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(toric_cohomology.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_first(name):
    script = f"import sys; sys.path.insert(0, {str(SRC)!r}); import toric_cohomology.{name}"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_exports_resolve():
    missing = [name for name in toric_cohomology.__all__ if not hasattr(toric_cohomology, name)]
    assert missing == []

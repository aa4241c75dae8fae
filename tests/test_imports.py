"""Every ``repro.*`` module imports on its own, first, in a fresh process.

An import cycle only shows when the modules in it are entered in one
particular order — typically a cold ``import repro.x.y`` that nothing
else has preceded — so the suite's own imports cannot catch it.  One
driver subprocess preloads NumPy and SciPy (third-party, outside any
cycle) and forks one child per module; no child inherits a ``repro``
module, so each import starts cold.
"""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import repro

_DRIVER = r"""
import importlib, os, sys, traceback
import numpy, scipy.sparse  # noqa: F401  (shared by every child)
assert not any(m.split(".")[0] == "repro" for m in sys.modules)
failed, running, pending = [], {}, list(sys.argv[1:])
while pending or running:
    while pending and len(running) < 2:
        name = pending.pop(0)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                importlib.import_module(name)
                code = 0
            except Exception:
                traceback.print_exc()
            finally:
                os._exit(code)
        running[pid] = name
    pid, status = os.wait()
    if status:
        failed.append(running[pid])
    del running[pid]
print("FAILED:", " ".join(sorted(failed)))
sys.exit(1 if failed else 0)
"""


def _all_modules():
    return ["repro"] + sorted(
        m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")
    )


def test_every_module_imports_cold():
    mods = _all_modules()
    assert "repro.geometric.parallel" in mods
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    # the driver forks: keep the BLAS and OpenMP pools from starting threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER, *mods],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

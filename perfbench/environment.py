"""The machine and library facts recorded with every result."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path


def _first_line(path: str, prefix: str = "") -> str:
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip() if prefix else line.strip()
    except OSError:
        pass
    return "unknown"


def _caches() -> dict[str, str]:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level = _first_line(str(index / "level"))
        kind = _first_line(str(index / "type"))
        if kind != "Instruction":
            out[f"l{level}_cache"] = _first_line(str(index / "size"))
    return out


def _blas_threads() -> int | str:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    libs = {line.split()[-1] for line in open("/proc/self/maps", encoding="ascii",
                                              errors="replace")
            if "openblas" in line and line.rstrip().endswith(".so")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def collect() -> dict:
    """Call after numpy is imported, so the BLAS library is loaded."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = _blas_threads()
    except OSError:
        threads = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _first_line("/proc/cpuinfo", "model name"),
        **_caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; else unknown."""
    git = root / ".git"
    head = _first_line(str(git / "HEAD"))
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _first_line(str(git / ref))
    if direct != "unknown":
        return direct
    for line in _lines(git / "packed-refs"):
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def _lines(path: Path) -> list[str]:
    try:
        return path.read_text(encoding="ascii", errors="replace").splitlines()
    except OSError:
        return []

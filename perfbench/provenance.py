"""Where a benchmark number came from: machine, libraries, program."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
from pathlib import Path

import numpy as np
import scipy


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas() -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"vendor": info.get("name"), "version": info.get("version"), "threads": None}
    # The OpenBLAS bundled with numpy wheels reports its live thread count.
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out["threads"] = int(fn())
                return out
    return out


def _git_commit(root: Path) -> str | None:
    """HEAD of a git checkout at root, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_files(root: Path) -> list[Path]:
    return sorted((root / "src" / "varietyfit").glob("*.py"))


def fingerprint(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def collect(root: Path) -> dict:
    src = source_files(root)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(root),
        "src_sha256": fingerprint(src),
        "src_varietyfit_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src),
        "load": "closed loop, one client in one process; BLAS default threads",
    }

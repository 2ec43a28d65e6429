"""Build the compiled kernels as a plain shared library.

The kernels are deliberately free of any Python-API dependency — plain C
compiled with whatever ``cc`` is on the PATH and loaded through
:mod:`ctypes` — so building them needs no Cython, no dev headers, and no
new packages.  :mod:`repro._kernels` builds them on first use when the
shared object is missing or older than a source; to build ahead of time:

    python -m repro._kernels.build

The shared object lands next to this file (``_cancel_kernel.so``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

_HERE = Path(__file__).resolve().parent

SOURCES = ("cancel.c", "fold.c")
LIB_NAME = "_cancel_kernel.so"


def library_path() -> Path:
    """Where the compiled shared object lives (may not exist yet)."""
    return _HERE / LIB_NAME


def is_stale() -> bool:
    """True when the shared object is missing or older than a source."""
    lib = library_path()
    if not lib.exists():
        return True
    built = lib.stat().st_mtime
    return any((_HERE / name).stat().st_mtime > built for name in SOURCES)


def find_compiler() -> str | None:
    """Locate a C compiler: ``$CC`` first, then ``gcc``/``cc``/``clang``."""
    env_cc = os.environ.get("CC")
    if env_cc:
        found = shutil.which(env_cc)
        if found:
            return found
    for name in ("gcc", "cc", "clang"):
        found = shutil.which(name)
        if found:
            return found
    return None


def build() -> Path:
    """Compile the kernels and return the library path.

    Raises :class:`RuntimeError` naming the library path, with the
    compiler's stderr, when no compiler is found or the build fails.
    Writes to a temp file and atomically replaces the target, so
    processes building at the same time never see a half-written shared
    object.
    """
    target = library_path()
    cc = find_compiler()
    if cc is None:
        raise RuntimeError(
            f"cannot build {target}: no C compiler found (tried $CC, gcc, cc, clang)"
        )
    sources = [str(_HERE / name) for name in SOURCES]
    try:
        fd, tmp_name = tempfile.mkstemp(suffix=".so", dir=str(_HERE))
    except OSError as exc:
        raise RuntimeError(f"cannot build {target}: {exc}") from exc
    os.close(fd)
    cmd = [cc, "-O3", "-fPIC", "-shared", "-o", tmp_name, *sources]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(
                f"cannot build {target}: {' '.join(cmd)} exited "
                f"{proc.returncode}\n{proc.stderr}"
            )
        os.replace(tmp_name, target)
    finally:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
    return target


def main() -> int:
    try:
        path = build()
    except RuntimeError as exc:
        print(f"repro._kernels: {exc}", file=sys.stderr)
        return 1
    print(f"repro._kernels: built {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Build and load the compiled replay machines (``exclude_machine.c``).

:func:`library` compiles the C source on first use -- never at import --
with the system C compiler (``cc``, else the interpreter's configured
``sysconfig`` ``CC``) and ``-O2 -shared -fPIC``, and loads the result with
:mod:`ctypes`.  The shared object is cached beside this module as
``__pycache__/exclude_machine-<hash>.so``, the hash covering the source
and the compile command, so an edited source or another compiler builds
afresh and every later process loads the cached file.  It is written
under a temporary name and renamed into place, so concurrent pool
workers racing to build it never load a half-written file.

Any failure -- no compiler, a compile error, a timeout, an unwritable
cache directory, a load error -- logs one warning naming the reason and
makes :func:`library` return ``None``; the replay kernels then replay
EJ/VEJ/IJ/HJ with the Python walks, which produce the same bytes.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shlex
import shutil
import sysconfig
from pathlib import Path

_logger = logging.getLogger("repro.cmachine")

SOURCE = Path(__file__).with_name("exclude_machine.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
COMPILE_TIMEOUT_S = 120

_UNLOADED = object()
#: The loaded library, ``None`` once loading failed, or ``_UNLOADED``.
_lib = _UNLOADED

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p


def library():
    """The loaded machine library, or ``None`` to run the Python walks."""
    global _lib
    if _lib is _UNLOADED:
        _lib = load()
    return _lib


def compiler() -> list[str]:
    """The C compiler: ``cc`` if on ``PATH``, else ``sysconfig``'s ``CC``.

    ``cc`` comes first because reading ``CC`` loads the interpreter's
    whole build configuration, which then stays in memory for the life
    of a process that usually only loads the cached library.
    """
    if shutil.which("cc"):
        return ["cc"]
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def load(cache_dir: Path | None = None):
    """Compile (unless cached) and load the library; ``None`` on failure."""
    try:
        source = SOURCE.read_bytes()
        command = [*compiler(), "-O2", "-shared", "-fPIC"]
        tag = hashlib.sha256(
            source + "\0".join(command).encode()
        ).hexdigest()[:16]
        target = Path(cache_dir or CACHE_DIR) / f"exclude_machine-{tag}.so"
        if not target.exists():
            _build(command, target)
        lib = ctypes.CDLL(str(target))
    except Exception as exc:  # any failure degrades to the Python walks
        _logger.warning(
            "compiled replay machines unavailable (%s: %s); "
            "replaying EJ/VEJ/IJ/HJ with the Python walks",
            type(exc).__name__, exc,
        )
        return None
    lib.ej_walk.restype = _I64
    lib.ej_walk.argtypes = [_PTR, _PTR, _I64, _I64, _PTR, _PTR, _PTR, _I64,
                            _PTR]
    lib.vej_walk.restype = _I64
    lib.vej_walk.argtypes = [_PTR, _PTR, _PTR, _I64, _I64, _I64, _I64, _PTR,
                             _PTR, _PTR, _I64, _PTR]
    lib.ij_walk.restype = _I64
    lib.ij_walk.argtypes = [_PTR, _I64, _I64, _I64, _PTR, _I64, _PTR, _PTR]
    return lib


def _build(command: list[str], target: Path) -> None:
    """Compile the source to ``target`` through a temporary file."""
    # Imported here: a process that loads the cached library never pays
    # their memory.
    import subprocess
    import tempfile

    target.parent.mkdir(parents=True, exist_ok=True)
    handle, name = tempfile.mkstemp(suffix=".tmp", dir=target.parent)
    os.close(handle)
    partial = Path(name)
    try:
        result = subprocess.run(
            [*command, "-o", str(partial), str(SOURCE)],
            capture_output=True, text=True, timeout=COMPILE_TIMEOUT_S,
        )
        if result.returncode != 0:
            raise OSError(
                f"{shlex.join(command)} exited {result.returncode}: "
                f"{result.stderr.strip()[:400]}"
            )
        os.replace(partial, target)
    finally:
        partial.unlink(missing_ok=True)

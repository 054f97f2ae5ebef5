"""Build and load the native core (``machine.c``).

:func:`library` compiles the C source on first use -- never at import --
with the system C compiler (``cc``, else the interpreter's configured
``sysconfig`` ``CC``) and :data:`FLAGS` (``-O2 -ffp-contract=off
-pthread -shared -fPIC``), linking ``-lm``, and loads the result with
:mod:`ctypes`.  The shared object is cached beside this module as
``__pycache__/machine-<hash>.so``, the hash covering the source and the
compile command, so an edited source or another compiler builds afresh
and every later process loads the cached file.  It is written under a
temporary name and renamed into place, so concurrent pool workers racing
to build it never load a half-written file.

The library is the one switch between the two tiers.  Loaded, EJ/VEJ/
IJ/HJ filters replay on its walk, trace segments code through its delta-v1 passes,
streams draw their accesses through its generator, and the coherence
simulator runs in its coherence core, one ``smp_run`` call per batch on
the machine's own cache buffers.  Any failure -- no compiler, a compile
error, a timeout, an unwritable cache directory, a load error -- logs
one warning naming the reason and makes :func:`library` return
``None``: every filter then replays on the per-event oracle, segments
code in pure Python, and the Python generator and simulator run, which
produce the same bytes.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shlex
import shutil
import sys
import sysconfig
import threading
from pathlib import Path

_logger = logging.getLogger("repro.cmachine")

SOURCE = Path(__file__).with_name("machine.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
COMPILE_TIMEOUT_S = 120
#: The compile flags.  -ffp-contract=off: the generator must round every
#: float step as CPython does; a contracted FMA (GCC's default wherever
#: FMA is baseline, e.g. aarch64) would let its draws diverge.
#: -pthread: the walk runs a round's node groups on threads of its own.
#: ``tools/sanitize_native.py`` builds with the same flags.
FLAGS = ("-O2", "-ffp-contract=off", "-pthread", "-shared", "-fPIC")
#: Linked after the source: the generator's skewed_offset calls the same
#: libm ``pow()`` as CPython's ``**``.
LIBRARIES = ("-lm",)

_UNLOADED = object()
#: The loaded library, ``None`` once loading failed, or ``_UNLOADED``.
_lib = _UNLOADED

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p

#: Every function the library exports: its result and argument types.
SIGNATURES = {
    # walk(jobs, n_jobs, threads)
    "walk": (_I64, [_PTR, _I64, _I64]),
    # delta_encode(raw, n, shift, out)
    "delta_encode": (_I64, [_PTR, _I64, _I64, _PTR]),
    # delta_decode(inner, len, n, events)
    "delta_decode": (_I64, [_PTR, _I64, _I64, _PTR]),
    # mix_take(mix, out, n)
    "mix_take": (_I64, [_PTR, _PTR, _I64]),
    # smp_run(machine, lo, hi)
    "smp_run": (_I64, [_PTR, _I64, _I64]),
}


def library():
    """The loaded library, or ``None`` for the oracle and the Python codec."""
    global _lib
    if _lib is _UNLOADED:
        _lib = load()
    return _lib


def thread_budget() -> int:
    """The CPUs the calling thread may spread native work over (the
    round walk's threads and the generator's draw-ahead helper): all it
    may run on for a process's main thread, one for a pool worker --
    any other thread, or a process :mod:`multiprocessing` started
    (looked up, never imported, so the serial path does not load it)."""
    if threading.current_thread() is not threading.main_thread():
        return 1
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is not None and (
        multiprocessing.parent_process() is not None
    ):
        return 1
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - no affinity API
        return os.cpu_count() or 1


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
        command = [*compiler(), *FLAGS]
        tag = hashlib.sha256(
            source + "\0".join([*command, *LIBRARIES]).encode()
        ).hexdigest()[:16]
        target = Path(cache_dir or CACHE_DIR) / f"machine-{tag}.so"
        if not target.exists():
            _build(command, target)
        lib = ctypes.CDLL(str(target))
    except Exception as exc:  # any failure degrades to the Python tier
        _logger.warning(
            "native core unavailable (%s: %s); replaying every filter on "
            "the per-event oracle, coding trace segments, drawing accesses "
            "and simulating the caches, write buffers and bus in Python",
            type(exc).__name__, exc,
        )
        return None
    for name, (restype, argtypes) in SIGNATURES.items():
        function = getattr(lib, name)
        function.restype = restype
        function.argtypes = argtypes
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
            [*command, "-o", str(partial), str(SOURCE), *LIBRARIES],
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

"""Run the native core's tests on an AddressSanitizer/UBSan build.

Compiles ``src/repro/core/machine.c`` with the shipped build's flags
(``repro.core._cmachine.FLAGS``) plus ``-fsanitize=address,undefined``
into a temporary directory, then runs the test files that drive every
native entry point -- the replay walk (``test_vector_replay.py``), its
rounds on two and four threads (``test_round_walk.py``), the live
banks' group walk (``test_streaming.py``), the coherence core
(``test_native_coherence.py``), the trace codec
(``test_trace_codecs.py``), the access generator
(``test_access_generation.py``) and the generator drawing ahead on a
helper thread beside the coherence core and the walk
(``test_draw_ahead.py``) -- in a child pytest under
``LD_PRELOAD`` of the compiler's ``libasan.so``.  The child loads this
script as a pytest plugin, which swaps ``repro.core._cmachine._lib`` for
the sanitized build before any test module is imported: the same seam
the parity tests use to hide the library.

Any out-of-bounds access, use after free or undefined behaviour aborts
the child, so the exit status is non-zero; otherwise it is pytest's.
The interpreter allocates from ``malloc`` alone, so a buffer the walk
overruns is seen; leak checking is off, as the interpreter never frees
everything.
Usage::

    PYTHONPATH=src python tools/sanitize_native.py [extra pytest args]
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = (
    "tests/test_vector_replay.py",
    "tests/test_round_walk.py",
    "tests/test_streaming.py",
    "tests/test_native_coherence.py",
    "tests/test_trace_codecs.py",
    "tests/test_access_generation.py",
    "tests/test_draw_ahead.py",
)
SANITIZE = ("-g", "-fno-omit-frame-pointer", "-fsanitize=address,undefined",
            "-fno-sanitize-recover=all")
#: Where the child finds the sanitized build.
LIBRARY_VARIABLE = "SANITIZED_MACHINE"


def build(directory: Path) -> Path:
    """Compile the sanitized library into ``directory``."""
    from repro.core import _cmachine

    target = directory / "machine-sanitized.so"
    subprocess.run(
        [*_cmachine.compiler(), *_cmachine.FLAGS, *SANITIZE, "-o",
         str(target), str(_cmachine.SOURCE), *_cmachine.LIBRARIES],
        check=True,
    )
    return target


def runtime() -> str:
    """The path of the compiler's ASan runtime, to preload."""
    from repro.core import _cmachine

    path = subprocess.run(
        [*_cmachine.compiler(), "-print-file-name=libasan.so"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    if not os.path.isabs(path):
        sys.exit(f"error: the compiler has no ASan runtime ({path})")
    return path


def pytest_configure(config) -> None:
    """Plugin hook in the child: load the sanitized build in place of
    the cached one."""
    from repro.core import _cmachine

    lib = ctypes.CDLL(os.environ[LIBRARY_VARIABLE])
    for name, (restype, argtypes) in _cmachine.SIGNATURES.items():
        function = getattr(lib, name)
        function.restype = restype
        function.argtypes = argtypes
    _cmachine._lib = lib


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory(prefix="sanitize-native-") as tmp:
        env = dict(
            os.environ,
            LD_PRELOAD=runtime(),
            ASAN_OPTIONS="detect_leaks=0",
            # Every buffer from malloc, where ASan can see its bounds,
            # not from the interpreter's small-object arenas.
            PYTHONMALLOC="malloc",
            UBSAN_OPTIONS="print_stacktrace=1",
            PYTHONPATH=os.pathsep.join(
                [str(ROOT / "src"), str(ROOT / "tools"), str(ROOT)]
            ),
        )
        env[LIBRARY_VARIABLE] = str(build(Path(tmp)))
        return subprocess.run(
            # --capture=sys: a sanitizer report, written to file
            # descriptor 2 as the child aborts, reaches the terminal.
            [sys.executable, "-m", "pytest", "-p", "sanitize_native", "-q",
             "-p", "no:cacheprovider", "--capture=sys", *TESTS, *argv],
            cwd=ROOT, env=env,
        ).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

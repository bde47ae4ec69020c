"""numpy's OpenBLAS set to one thread for the whole process, once, when prototext is imported.

A second BLAS thread buys no speed at this package's matrix sizes, and it rounds the
vocabulary-width products differently, so artifact bytes would depend on the core
count. The count is never restored: setting and restoring it around each call cost
more time than the one thread saves. ``PINNED`` is False, after one warning, when
numpy's bundled OpenBLAS is not found; the process then runs at its default count.
"""

from __future__ import annotations

import ctypes
import logging
from pathlib import Path

import numpy

log = logging.getLogger(__name__)


def _pin_one_thread() -> bool:
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            set_threads = ctypes.CDLL(str(path)).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)
        return True
    log.warning("numpy's bundled OpenBLAS not found: BLAS threads unpinned, bytes may vary")
    return False


PINNED = _pin_one_thread()

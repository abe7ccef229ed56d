"""Hold numpy's BLAS at one thread while a block of code runs.

numpy's bundled OpenBLAS spins a worker for about 125 ms after every
threaded product, and each product of a batch wakes it again. Threads of
our own that want both CPUs (``data.build_dataset``'s synthesis pool)
then compete with that worker. ``one_thread`` sets the library's thread
count to 1 on entry and puts the previous count back on exit.

The library is found through ``ctypes`` from numpy's own extension
module, whose dependencies include the bundled OpenBLAS, and driven
through its ``scipy_openblas_get_num_threads64_`` and
``scipy_openblas_set_num_threads64_``. Where numpy was built against
another BLAS (MKL, Accelerate, a system OpenBLAS with other symbol
names) those are absent, and ``one_thread`` does nothing but log one line.

The thread count is a setting of the whole process, not of the calling
thread: while any ``one_thread`` block runs, every BLAS call in the
process runs on one thread, so a float ``nn.train`` running concurrently
in another thread would train on one thread, and round as it does there.
Blocks may overlap across threads; a lock and a depth count make the
first to enter save the count and the last to leave restore it, once.
"""

from __future__ import annotations

import contextlib
import ctypes
import logging
import threading

logger = logging.getLogger(__name__)


def _load_library():
    """(get, set) for numpy's bundled OpenBLAS thread count, or None."""
    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


_library = _load_library()
_lock = threading.Lock()
_depth = 0
_saved = 0


@contextlib.contextmanager
def one_thread():
    """Run the block with BLAS at one thread, then restore the previous count."""
    global _depth, _saved
    library = _library
    if library is None:
        logger.info("numpy's BLAS exposes no thread control; its thread count is left as it is")
        yield
        return
    get, set_ = library
    with _lock:
        if _depth == 0:
            _saved = get()
            set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                set_(_saved)

"""Hold numpy's BLAS at one thread while a block of code runs.

numpy's bundled OpenBLAS spins a worker for about 125 ms after every
threaded product, and each product of a batch wakes it again. Threads of
our own that want the CPUs then compete with that worker. ``one_thread``
sets the library's thread count to 1 on entry and puts the previous count
back on exit. Two holders use it:

- ``data.build_dataset`` holds it while its synthesis pool runs, so the
  pool has both CPUs;
- ``stream.StreamServer``'s loop holds it from start to stop, so a
  serving process runs every BLAS call at one thread and leaves the other
  CPU to its clients.

The library is found through ``ctypes`` from numpy's own extension
module, whose dependencies include the bundled OpenBLAS, and driven
through its ``scipy_openblas_get_num_threads64_`` and
``scipy_openblas_set_num_threads64_``. Where numpy was built against
another BLAS (MKL, Accelerate, a system OpenBLAS with other symbol
names) those are absent, and ``one_thread`` does nothing but log one line.

The thread count is a setting of the whole process, not of the calling
thread: while any ``one_thread`` block runs, every BLAS call in the
process runs on one thread. So a process that serves and trains at once
trains at one thread, and its float products round as they do there; the
same holds for a ``nn.train`` running beside a synthesis pool.
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

"""The thread pool of the OpenBLAS that numpy bundles.

numpy's wheels bundle ``libscipy_openblas64_``.  After a threaded call, its
idle workers spin for about 0.1 s (2^28 cycles) before they sleep, and that
spin runs beside whatever single-threaded Python comes next: on two cores,
a relaxed finite spectrum burns about 1.9 times its wall time in CPU.
``blas_thread_shutdown_``, which OpenBLAS itself calls before a fork, joins
the workers at once, and the next threaded call starts them again at the
same count, so no result depends on it.  The command line enters
``command`` for the length of one command, which sets the count of a small
chain to one thread; inside it, the 3N x 3N factorizations of a finite
chain join the workers after them (``parked``).  A library call leaves the
pool alone, as its caller may run BLAS in another thread.

Every symbol is looked up on first use, so importing the package costs
nothing.  Under another BLAS, or without the shutdown symbol, nothing here
acts.
"""

from __future__ import annotations

import contextlib
import functools

# Module state, as the pool belongs to the whole process.
_parking = False  # True inside ``command``: one command of the command line
_parked = False   # True once a park has happened (a threaded call may have restarted the pool)


def _symbols(*names):
    """The named functions of numpy's bundled OpenBLAS, or None where numpy
    links another BLAS or one of them is missing."""
    import ctypes

    try:
        try:
            from numpy._core import _multiarray_umath as umath
        except ImportError:  # numpy < 2
            from numpy.core import _multiarray_umath as umath
        lib = ctypes.CDLL(umath.__file__)
        return [getattr(lib, name) for name in names]
    except (ImportError, OSError, AttributeError):
        return None


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy bundles, or
    None where numpy links another BLAS.  Looked up on first use only."""
    import ctypes

    found = _symbols("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_")
    if found is None:
        return None
    get, set_ = found
    get.restype = ctypes.c_int
    set_.argtypes = [ctypes.c_int]
    return get, set_


@functools.cache
def _thread_shutdown():
    """OpenBLAS's ``blas_thread_shutdown_``, which joins its workers, or None
    where it is missing.  Looked up on first use only."""
    import ctypes

    found = _symbols("blas_thread_shutdown_")
    if found is None:
        return None
    shutdown, = found
    shutdown.restype = ctypes.c_int
    shutdown.argtypes = []
    return shutdown


def _park():
    """Join the workers, where the shutdown symbol is found."""
    global _parked
    shutdown = _thread_shutdown()
    if shutdown is not None:
        shutdown()
        _parked = True


def _set_threads(count: int) -> None:
    """Set the thread count.  On a parked pool, OpenBLAS starts a worker that
    spins; inside ``command``, it is joined again at once."""
    _openblas_threads()[1](count)
    if _parking and _parked:
        _park()


@contextlib.contextmanager
def command(serial: bool):
    """The pool for the length of one command of the command line: ``parked``
    joins the workers inside it, and with ``serial`` BLAS runs on one thread,
    the caller's count given back after it, also on an error.

    The command line runs a chain of at most ``cli._SERIAL_BLAS_CELLS`` cells
    serially.  Its matrices are at most 96 x 96 then, which a second thread
    slows down: a 42 x 42 ``eigh`` takes about 16 ms on two OpenBLAS threads
    and 0.14 ms on one.
    """
    global _parking
    blas = _openblas_threads() if serial else None
    caller = blas[0]() if blas is not None else None
    _parking = True
    try:
        if blas is not None:
            _set_threads(1)
        yield
    finally:
        if blas is not None:
            _set_threads(caller)
        _parking = False


@contextlib.contextmanager
def parked():
    """Join the idle workers after the block, also on an error, inside
    ``command`` when BLAS runs on more than one thread.

    For a factorization of a finite chain's 3N x 3N matrix, whose workers
    would otherwise spin through the single-threaded work that follows.
    """
    try:
        yield
    finally:
        threads = _openblas_threads() if _parking else None
        if threads is not None and threads[0]() > 1:
            _park()

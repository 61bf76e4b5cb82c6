"""One BLAS thread for a block of code, set through numpy's OpenBLAS.

The package's only BLAS is the OpenBLAS numpy ships, which starts a
thread pool sized from the environment or the core count.  A dense
inverse or product of a few hundred rows rounds differently on one
thread than on several, so a negotiation pins that pool to one thread
while it runs; reports then do not depend on the caller's settings, and
agent processes do not oversubscribe the cores.

The thread-count functions are looked up once per process, through the
extension module numpy's linear algebra calls: a symbol lookup there
also searches the libraries it links, so no file name is assumed.
Where numpy has no known OpenBLAS, `single_thread` does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os

import numpy.linalg

# (get, set) thread-count functions of the 64-bit-integer build, then of
# the 32-bit one
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


@functools.cache
def numpy_openblas():
    """numpy's OpenBLAS (get, set) thread-count functions, or None."""
    try:  # a private module: a numpy without it pins nothing
        lib = ctypes.CDLL(numpy.linalg._umath_linalg.__file__,
                          mode=os.RTLD_NOLOAD)
    except (AttributeError, OSError):
        return None
    for get_name, set_name in _SYMBOLS:
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def single_thread():
    """Run the block with numpy's OpenBLAS on one thread, then give it
    back the caller's thread count, also when the block raises."""
    get, set_ = numpy_openblas() or (lambda: None, lambda count: None)
    saved = get()
    set_(1)
    try:
        yield
    finally:
        set_(saved)

"""One BLAS thread for a block of code, set through the BLAS library.

numpy ships its own OpenBLAS, and scipy another, loaded when something
imports scipy; each starts a thread pool sized from the environment or
the core count.  A dense inverse or product of a few hundred rows
rounds differently on one thread than on several, so a negotiation
pins every loaded pool to one thread while it runs; reports then do not
depend on the caller's settings, and agent processes do not
oversubscribe the cores.

The libraries are found among the shared objects loaded into the
process, by the thread-count functions they export, so no file name is
assumed.  Where no OpenBLAS is loaded, `single_thread` does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
from typing import NamedTuple

# (get, set) thread-count functions: numpy's 64-bit-integer build first,
# then scipy's 32-bit one
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


class OpenBlas(NamedTuple):
    """The thread-count functions of one loaded OpenBLAS."""

    get_num_threads: ctypes._CFuncPtr
    set_num_threads: ctypes._CFuncPtr


class _PhdrInfo(ctypes.Structure):
    # leading fields of struct dl_phdr_info (<link.h>)
    _fields_ = [("dlpi_addr", ctypes.c_void_p),
                ("dlpi_name", ctypes.c_char_p)]


_PHDR_CALLBACK = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.POINTER(_PhdrInfo),
                                  ctypes.c_size_t, ctypes.c_void_p)


def _loaded_objects() -> list[str]:
    """Paths of the shared objects loaded into this process, or an empty
    list where the C library has no `dl_iterate_phdr`."""
    iterate = getattr(ctypes.CDLL(None), "dl_iterate_phdr", None)
    if iterate is None:
        return []
    iterate.argtypes = [_PHDR_CALLBACK, ctypes.c_void_p]
    iterate.restype = ctypes.c_int
    paths = []

    def visit(info, size, data):
        if info.contents.dlpi_name:
            paths.append(os.fsdecode(info.contents.dlpi_name))
        return 0

    iterate(_PHDR_CALLBACK(visit), None)
    return paths


def openblas_libraries() -> list[OpenBlas]:
    """Every loaded OpenBLAS that exports a known thread-count pair.

    Symbol lookup also searches an object's dependencies, so extension
    modules linked against an OpenBLAS resolve to its functions; each
    library is listed once, by the address of its functions.
    """
    found = {}
    for path in _loaded_objects():
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                address = ctypes.cast(set_, ctypes.c_void_p).value
                found.setdefault(address, OpenBlas(get, set_))
                break
    return list(found.values())


@contextlib.contextmanager
def single_thread():
    """Run the block with every loaded OpenBLAS on one thread, then give
    each library back the thread count it had, also when the block
    raises."""
    libs = openblas_libraries()
    saved = [lib.get_num_threads() for lib in libs]
    for lib in libs:
        lib.set_num_threads(1)
    try:
        yield
    finally:
        for lib, count in zip(libs, saved):
            lib.set_num_threads(count)

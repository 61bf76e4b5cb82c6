import ctypes
import os

import pytest
import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)
from numpy.linalg import _umath_linalg

from hvactrade import blas


def scipy_openblas():
    """scipy's OpenBLAS (get, set) thread-count pair, through the
    extension module scipy.linalg calls."""
    lib = ctypes.CDLL(scipy.linalg._fblas.__file__, mode=os.RTLD_NOLOAD)
    get, set_ = lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@pytest.fixture
def callers_threads():
    """numpy's pool set to 2 by the caller, given back its count after."""
    get, set_ = blas.numpy_openblas()
    saved = get()
    set_(2)
    yield get
    set_(saved)


def test_single_thread_pins_numpys_openblas_and_restores_the_callers_count(
        callers_threads):
    get = callers_threads
    with blas.single_thread():
        assert get() == 1
    assert get() == 2

    with pytest.raises(RuntimeError, match="inside the scope"):
        with blas.single_thread():
            assert get() == 1
            raise RuntimeError("inside the scope")
    assert get() == 2


def test_single_thread_leaves_scipys_openblas_alone(callers_threads):
    get, set_ = scipy_openblas()
    address = lambda f: ctypes.cast(f, ctypes.c_void_p).value  # noqa: E731
    assert address(get) != address(callers_threads)
    saved = get()
    try:
        set_(2)
        with blas.single_thread():
            assert callers_threads() == 1
            assert get() == 2
        assert get() == 2
    finally:
        set_(saved)


def test_single_thread_without_openblas_does_nothing(callers_threads,
                                                     monkeypatch):
    monkeypatch.setattr(blas, "numpy_openblas", lambda: None)
    with blas.single_thread():
        assert callers_threads() == 2


def test_numpys_extension_module_is_opened_once(monkeypatch):
    opened, cdll = [], ctypes.CDLL

    def counting_cdll(path, *args, **kwargs):
        opened.append(path)
        return cdll(path, *args, **kwargs)

    blas.numpy_openblas.cache_clear()
    monkeypatch.setattr(blas.ctypes, "CDLL", counting_cdll)
    with blas.single_thread():
        pass
    with blas.single_thread():
        pass
    assert opened == [_umath_linalg.__file__]

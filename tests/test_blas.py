import ctypes

import numpy  # noqa: F401  (loads numpy's OpenBLAS)
import pytest
import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

from hvactrade import blas


def thread_counts(libs):
    return [lib.get_num_threads() for lib in libs]


def test_single_thread_pins_every_openblas_and_restores_the_callers_count():
    libs = blas.openblas_libraries()
    assert libs
    saved = thread_counts(libs)
    try:
        for lib in libs:
            lib.set_num_threads(2)
        with blas.single_thread():
            assert thread_counts(libs) == [1] * len(libs)
        assert thread_counts(libs) == [2] * len(libs)

        with pytest.raises(RuntimeError, match="inside the scope"):
            with blas.single_thread():
                assert thread_counts(libs) == [1] * len(libs)
                raise RuntimeError("inside the scope")
        assert thread_counts(libs) == [2] * len(libs)
    finally:
        for lib, count in zip(libs, saved):
            lib.set_num_threads(count)


def test_each_openblas_is_listed_once():
    libs = blas.openblas_libraries()
    addresses = {ctypes.cast(lib.set_num_threads, ctypes.c_void_p).value
                 for lib in libs}
    assert len(addresses) == len(libs)


def test_single_thread_without_openblas_does_nothing(monkeypatch):
    monkeypatch.setattr(blas, "_loaded_objects", lambda: [])
    assert blas.openblas_libraries() == []
    with blas.single_thread():
        pass

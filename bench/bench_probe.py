"""Set-up probe: import a module in a fresh interpreter, then say ready.

After the ready line it prints the OpenBLAS thread count of the interpreter,
read from the library numpy loads (``None`` when it cannot be found).

Usage: PYTHONPATH=src python bench/bench_probe.py <module>
"""

import importlib
import sys


def blas_threads():
    import ctypes
    import glob
    import os

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "libscipy_openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


if __name__ == "__main__":
    importlib.import_module(sys.argv[1])
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    sys.stdout.write(f"{blas_threads()}\n")

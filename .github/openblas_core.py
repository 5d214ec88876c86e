"""Print numpy's version and the OpenBLAS core it runs on, which
`OPENBLAS_CORETYPE` overrides.  Reads numpy's bundled scipy-openblas
library, as numpy 2.x wheels ship it."""

import ctypes
import glob
import os

import numpy

[lib] = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs",
                               "libscipy_openblas64_*"))
corename = ctypes.CDLL(lib).scipy_openblas_get_corename64_
corename.argtypes, corename.restype = [], ctypes.c_char_p
print(f"numpy {numpy.__version__}, OpenBLAS core {corename().decode()}")

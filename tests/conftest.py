"""Test-session setup: one BLAS thread unless the environment says otherwise.

The suite's matrices are small, where multithreaded BLAS spends more time on
thread hand-off than on arithmetic.  pytest loads this file before any test
module imports numpy, so the defaults below reach the BLAS library.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

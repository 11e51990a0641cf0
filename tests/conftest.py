"""Test-session set-up: numpy's BLAS runs on one thread.

A few tests make dense solves, SVDs and condition numbers of matrices up
to a few hundred rows.  With BLAS's default threads they run several times
slower while another process keeps a core of a small host busy.  One
thread keeps the suite's time steady.  The variables must be set before
numpy loads, and pytest reads this file before it imports any test module;
a value set in the environment is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

"""Pin BLAS and OpenMP to one thread for the test process, as ``cli.py`` does
for ``residue-lab``, unless the environment already sets a count.

OpenBLAS reads these variables once, when numpy is first imported; pytest
imports this file before any test module, so the pin takes effect here.  A
multithreaded BLAS stalls some runs on the small products the kernels make.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

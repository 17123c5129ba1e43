"""GCN training with alternating adversarial weight/feature perturbation.

Importing the package caps the BLAS thread pools: each variable below
that is not already set takes ``CAPGNN_THREADS`` (default 1). The caps
bind only if ``capgnn`` is imported before numpy, which the ``capgnn``
command always does. Submodules are imported explicitly
(``capgnn.train``, ``capgnn.graph``, ...).
"""

import os

__version__ = "0.1.0"

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, os.environ.get("CAPGNN_THREADS") or "1")

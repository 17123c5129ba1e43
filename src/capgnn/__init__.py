"""GCN training with alternating adversarial weight/feature perturbation.

Importing the package pins each BLAS thread pool below to one thread,
overriding any pre-set value: a second BLAS thread changes output
bytes, while the row-block pool (``capgnn.linalg``) uses the other cores
with unchanged bytes. The pin binds only if ``capgnn`` is imported
before numpy, which the ``capgnn`` command always does. Submodules are
imported explicitly (``capgnn.train``, ``capgnn.graph``, ...).
"""

import os

__version__ = "0.1.0"

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

import gen
import workloads


@pytest.fixture
def small_cells():
    t = gen.banded(60, 4.975, np.random.default_rng(0))
    source = gen.csr(t)
    return [
        workloads.Cell("CSR->CSC:python", "CSR", "CSC", "python", True,
                       source, t),
        workloads.Cell("CSR->COO:numpy", "CSR", "COO", "numpy", True,
                       source, t),
    ]

"""The three compiled scipy modules the package runs, loaded by file.

The HJB step's CSR matvec is `scipy.sparse._sparsetools.csr_matvec`, the
exact joint W1's assignment is `scipy.optimize._lsap.linear_sum_assignment`
(Crouse, IEEE TAES 52, 2016), and the curve solver's banded Cholesky factor
and solve are LAPACK's `dpbtrf` and `dpbtrs` from `scipy.linalg._flapack`.
Importing a subpackage runs its `__init__`, which loads the whole subpackage
and scipy's array-API layer (about 0.45 s and 50 MiB for sparse and
optimize, 0.23 s and 27 MiB for linalg and sparse); the three extension
modules alone take about 8 ms and 2.7 MiB, most of it `_flapack` and the
OpenBLAS it links. Each is loaded from its file and left out of
`sys.modules`, so a later import of its subpackage loads it again, binds it
there and shares its functions; one imported earlier is reused. `_flapack`
is loaded at the first use of `dpbtrf` or `dpbtrs`. No other module names
them.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from importlib.machinery import ExtensionFileLoader, PathFinder

import scipy


def _extension(subpackage: str, name: str):
    """The compiled module `scipy.<subpackage>.<name>`, from `sys.modules` or
    loaded from its file; ImportError if scipy has no such extension module."""
    fullname = f"scipy.{subpackage}.{name}"
    module = sys.modules.get(fullname)
    if module is not None:
        return module
    spec = PathFinder.find_spec(fullname, [os.path.join(scipy.__path__[0], subpackage)])
    if spec is None or not isinstance(spec.loader, ExtensionFileLoader):
        raise ImportError(
            f"scipy {scipy.__version__} has no compiled module {fullname}", name=fullname
        )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(fullname, None)  # where creating a single-phase module put it
    return module


# csr_matvec(n_rows, n_cols, indptr, indices, data, x, y) adds the product to y
csr_matvec = _extension("sparse", "_sparsetools").csr_matvec
linear_sum_assignment = _extension("optimize", "_lsap").linear_sum_assignment


def __getattr__(name):
    """`dpbtrf` and `dpbtrs`, loaded with `_flapack` at the first use of either."""
    if name not in ("dpbtrf", "dpbtrs"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    flapack = _extension("linalg", "_flapack")
    globals().update(dpbtrf=flapack.dpbtrf, dpbtrs=flapack.dpbtrs)
    return globals()[name]

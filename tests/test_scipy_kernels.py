"""The compiled scipy routines that `mfglab._scipy` loads by file, checked
against the public scipy packages that wrap them (imported here freely)."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy
import scipy.linalg
import scipy.optimize
import scipy.sparse

from mfglab import (
    PhaseGrid,
    acceleration_controls,
    gaussian_ensemble,
    make_lagrangian,
    make_terminal,
)
from mfglab import _scipy, hjb
from mfglab.measures import _ground_cost


def _csr_matrix_min(S, const, u):
    """`hjb._chunk_min` through `scipy.sparse.csr_matrix`, as the solvers computed it."""
    n_rows = S.indptr.size - 1
    A = scipy.sparse.csr_matrix((S.data, S.indices, S.indptr), shape=(n_rows, S.n_cols))
    cand = (A @ u).reshape(const.shape)
    cand += const
    return cand.min(axis=0)


def test_chunk_min_equals_the_csr_matrix_product_on_the_default_grid():
    """Every chunk of the default grid's operator at eps 0.01 gives the minimum
    of the `csr_matrix` product bit for bit."""
    grid = PhaseGrid.regular()
    spec = make_lagrangian("quartic")
    op = hjb.acceleration_operator(grid, spec, 0.01, acceleration_controls(grid, 0.01))
    u = np.random.default_rng(0).normal(size=grid.x.size * grid.v.size)
    for chunks in op.blocks:
        for S, const in chunks:
            assert np.array_equal(hjb._chunk_min(S, const, u), _csr_matrix_min(S, const, u))


def test_chunk_min_equals_the_csr_matrix_product_on_a_limit_operator(monkeypatch):
    """The classical limit's operator on the default grid, taken from its solve,
    gives the minimum of the `csr_matrix` product bit for bit."""
    grid = PhaseGrid.regular()
    sweep, seen = hjb._backward_sweep, []

    def recording_sweep(grid, spec, m_flow, g, blocks, node_running, u):
        seen.extend(chunk for chunks in blocks for chunk in chunks)
        return sweep(grid, spec, m_flow, g, blocks, node_running, u)

    monkeypatch.setattr(hjb, "_backward_sweep", recording_sweep)
    hjb.solve_hjb_limit_classical(grid, make_lagrangian("quartic"), None, make_terminal("zero"))
    (S, const), = seen
    assert S.n_cols == grid.x.size and const.shape == (grid.v.size, grid.x.size)
    u = np.random.default_rng(1).normal(size=grid.x.size)
    assert np.array_equal(hjb._chunk_min(S, const, u), _csr_matrix_min(S, const, u))


def test_stencil_operator_refuses_what_csr_matrix_refuses():
    """A row pointer that is too short, ends short of the entries or has another
    dtype than the indices does not form an operator."""
    indices, data = np.zeros((3, 2), dtype=np.int32), np.ones((3, 2))
    indptr = hjb._row_pointer(3, 2)
    assert hjb._stencil_operator(4, indices, data, indptr).indptr.size == 4
    for bad in (indptr[:3], indptr.astype(np.int64), np.array([0, 2, 4, 5], dtype=np.int32)):
        with pytest.raises(ValueError, match="CSR operator"):
            hjb._stencil_operator(4, indices, data, bad)


def test_linear_sum_assignment_equals_scipy_optimize():
    """The assignment loaded by file pairs a 300-particle pair like scipy.optimize's."""
    a, b = gaussian_ensemble(300, seed=4), gaussian_ensemble(300, seed=5)
    cost = _ground_cost(a, b)
    rows, cols = _scipy.linear_sum_assignment(cost)
    ref_rows, ref_cols = scipy.optimize.linear_sum_assignment(cost)
    assert np.array_equal(rows, ref_rows) and np.array_equal(cols, ref_cols)


def _spd_band(rng, n):
    """Upper banded storage (bandwidth 2) of a random strictly diagonally dominant
    matrix, so symmetric positive definite."""
    ab = rng.normal(size=(3, n))
    ab[0, :2] = ab[1, :1] = 0.0
    ab[2] = 4.0 * np.abs(ab[:2]).max() + rng.uniform(0.1, 1.0, n)
    return ab


@pytest.mark.parametrize("n", [3, 10, 401])
def test_banded_cholesky_equals_scipy_linalg(n):
    """dpbtrf and dpbtrs loaded by file factor and solve like scipy.linalg's
    cholesky_banded and cho_solve_banded, bit for bit."""
    rng = np.random.default_rng(n)
    for _ in range(5):
        ab, b = _spd_band(rng, n), rng.normal(size=n)
        c, info = _scipy.dpbtrf(ab)
        assert info == 0 and np.array_equal(c, scipy.linalg.cholesky_banded(ab))
        x, info = _scipy.dpbtrs(c, b)
        assert info == 0 and np.array_equal(x, scipy.linalg.cho_solve_banded((c, False), b))


def test_dpbtrf_reports_an_indefinite_band():
    """The leading minor that is not positive is info's positive value, where
    scipy.linalg.cholesky_banded raises LinAlgError."""
    ab = np.array([[0.0, 0.0, 0.5], [0.0, 2.0, 0.5], [1.0, 1.0, 1.0]])  # minor 2: 1 - 4 < 0
    _, info = _scipy.dpbtrf(ab)
    assert info == 2
    with pytest.raises(scipy.linalg.LinAlgError):
        scipy.linalg.cholesky_banded(ab)


@pytest.mark.parametrize("mfglab_first", [True, False])
def test_kernels_are_shared_with_scipy_in_either_import_order(mfglab_first):
    """In a fresh process, `import scipy.sparse, scipy.optimize, scipy.linalg`
    after mfglab has loaded its kernels works, binds the three kernel modules as
    attributes of their subpackages and runs the functions mfglab loaded;
    mfglab imported after them takes theirs."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    imports = [
        "import mfglab._scipy as k\nk.dpbtrf",  # _flapack is loaded at first use
        "import scipy.sparse, scipy.optimize, scipy.linalg",
    ]
    first, second = imports if mfglab_first else imports[::-1]
    code = "\n".join([
        "import numpy as np",
        first,
        second,
        "assert k.csr_matvec is scipy.sparse._sparsetools.csr_matvec",
        "assert k.linear_sum_assignment is scipy.optimize._lsap.linear_sum_assignment",
        "assert k.linear_sum_assignment is scipy.optimize.linear_sum_assignment",
        "assert (scipy.sparse.csr_matrix(np.eye(3)) @ np.arange(3.0)).tolist() == [0, 1, 2]",
        "rows, cols = scipy.optimize.linear_sum_assignment(1.0 - np.eye(3)[::-1])",
        "assert cols.tolist() == [2, 1, 0]",
        "assert k.dpbtrf is scipy.linalg._flapack.dpbtrf",
        "assert k.dpbtrs is scipy.linalg.lapack.dpbtrs",
        "assert scipy.linalg.cholesky_banded(np.array([[0, 1.0], [4, 4]]))[1, 0] == 2",
    ])
    subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path), check=True
    )


@pytest.mark.parametrize("name", ["_no_such_module", "_base"])
def test_loader_refuses_a_missing_or_pure_python_module(name, monkeypatch):
    """A module scipy lacks, and one that is Python source, raise ImportError
    naming the module and scipy's version."""
    monkeypatch.delitem(sys.modules, f"scipy.sparse.{name}", raising=False)
    with pytest.raises(ImportError, match=f"scipy {scipy.__version__} .*scipy.sparse.{name}$"):
        _scipy._extension("sparse", name)
    assert f"scipy.sparse.{name}" not in sys.modules

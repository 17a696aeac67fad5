"""The hand-written name-based environments, kept as a parity oracle.

Before formats were level compositions, :func:`container_to_env` bound
each container through this table.  ``test_env_matches_legacy_path``
requires the composition-derived environment to equal it.
"""

from repro.runtime import (
    BCSRMatrix,
    COOMatrix,
    COOTensor3D,
    CSCMatrix,
    CSFTensor,
    CSRMatrix,
    DIAMatrix,
    ELLMatrix,
    MortonCOOMatrix,
    MortonCOOTensor3D,
)


def legacy_container_to_env(container) -> dict:
    if isinstance(container, MortonCOOMatrix):
        return {
            "row_m": container.row,
            "col_m": container.col,
            "Asrc": container.val,
            "NR": container.nrows,
            "NC": container.ncols,
            "NNZ": container.nnz,
        }
    if isinstance(container, COOMatrix):
        return {
            "row1": container.row,
            "col1": container.col,
            "Asrc": container.val,
            "NR": container.nrows,
            "NC": container.ncols,
            "NNZ": container.nnz,
        }
    if isinstance(container, CSRMatrix):
        return {
            "rowptr": container.rowptr,
            "col2": container.col,
            "Asrc": container.val,
            "NR": container.nrows,
            "NC": container.ncols,
            "NNZ": container.nnz,
        }
    if isinstance(container, CSCMatrix):
        return {
            "colptr": container.colptr,
            "row2": container.row,
            "Asrc": container.val,
            "NR": container.nrows,
            "NC": container.ncols,
            "NNZ": container.nnz,
        }
    if isinstance(container, DIAMatrix):
        return {
            "off": container.off,
            "Asrc": container.data,
            "NR": container.nrows,
            "NC": container.ncols,
            "ND": container.ndiags,
        }
    if isinstance(container, BCSRMatrix):
        return {
            "browptr": container.browptr,
            "bcol": container.bcol,
            "Asrc": container.data,
            "NR": container.nrows,
            "NC": container.ncols,
            "NBR": container.nblockrows,
            "NB": container.nblocks,
            "NBC": -(-container.ncols // container.bsize),
        }
    if isinstance(container, ELLMatrix):
        return {
            "ellcol": container.col,
            "Asrc": container.val,
            "NR": container.nrows,
            "NC": container.ncols,
            "W": container.width,
        }
    if isinstance(container, CSFTensor):
        return {
            "rootidx": container.rootidx,
            "fptr": container.fptr,
            "fibidx": container.fibidx,
            "kptr": container.kptr,
            "kidx": container.kidx,
            "Asrc": container.val,
            "NR": container.dims[0],
            "NC": container.dims[1],
            "NZ": container.dims[2],
            "NROOT": container.nroots,
            "NFIB": container.nfibers,
            "NNZ": container.nnz,
        }
    if isinstance(container, MortonCOOTensor3D):
        return {
            "row_m": container.row,
            "col_m": container.col,
            "z_m": container.z,
            "Asrc": container.val,
            "NR": container.dims[0],
            "NC": container.dims[1],
            "NZ": container.dims[2],
            "NNZ": container.nnz,
        }
    if isinstance(container, COOTensor3D):
        return {
            "row1": container.row,
            "col1": container.col,
            "z1": container.z,
            "Asrc": container.val,
            "NR": container.dims[0],
            "NC": container.dims[1],
            "NZ": container.dims[2],
            "NNZ": container.nnz,
        }
    raise TypeError(f"no legacy environment for container {container!r}")

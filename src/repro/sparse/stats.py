"""Matrix statistics used throughout the evaluation.

The central quantity is the paper's working-set formula (Sec. III)::

    ws = 4 * ((n + 1) + nnz) + 8 * (nnz + 2 * n)   [bytes]

i.e. 32-bit ``ptr`` and ``index``, double-precision ``da``, ``x`` and
``y``.  The per-core working set of a row partition splits the ptr/
index/da/y terms by part and charges each part only the slice of ``x``
its column range can touch is *not* done — the paper divides the whole
working set by the core count, and we follow it exactly
(:func:`working_set_per_core`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CSRMatrix

__all__ = [
    "working_set_bytes",
    "working_set_mbytes",
    "working_set_per_core",
    "MatrixProfile",
    "profile_matrix",
]


def working_set_bytes(n: int, nnz: int) -> int:
    """Paper Sec. III: bytes touched by one SpMV on an n-row matrix."""
    if n < 0 or nnz < 0:
        raise ValueError("n and nnz must be non-negative")
    return 4 * ((n + 1) + nnz) + 8 * (nnz + 2 * n)


def working_set_mbytes(n: int, nnz: int) -> float:
    """The working-set formula in MiB."""
    return working_set_bytes(n, nnz) / 2**20


def working_set_per_core(a: CSRMatrix, n_cores: int) -> float:
    """Working set divided evenly by core count (bytes), as in Fig. 6."""
    if n_cores < 1:
        raise ValueError(f"n_cores must be >= 1, got {n_cores}")
    return working_set_bytes(a.n_rows, a.nnz) / n_cores


@dataclass(frozen=True)
class MatrixProfile:
    """Summary statistics of one matrix (Table I row + locality extras)."""

    n: int
    nnz: int
    nnz_per_row: float
    ws_mbytes: float
    row_len_min: int
    row_len_max: int
    row_len_std: float
    mean_col_distance: float  # mean |col - row|: dispersion from diagonal

    def row(self) -> tuple:
        """(n, nnz, nnz/n, ws MB) — the four Table I columns."""
        return (self.n, self.nnz, self.nnz_per_row, self.ws_mbytes)


def profile_matrix(a: CSRMatrix) -> MatrixProfile:
    """Compute the full MatrixProfile of a matrix."""
    lengths = a.row_lengths()
    rows_of_nnz = np.repeat(np.arange(a.n_rows, dtype=np.int64), lengths)
    col_dist = float(np.abs(a.index.astype(np.int64) - rows_of_nnz).mean()) if a.nnz else 0.0
    return MatrixProfile(
        n=a.n_rows,
        nnz=a.nnz,
        nnz_per_row=a.nnz_per_row,
        ws_mbytes=working_set_mbytes(a.n_rows, a.nnz),
        row_len_min=int(lengths.min()) if a.n_rows else 0,
        row_len_max=int(lengths.max()) if a.n_rows else 0,
        row_len_std=float(lengths.std()) if a.n_rows else 0.0,
        mean_col_distance=col_dist,
    )

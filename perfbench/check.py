"""Independent output check of a returned partition.

Recomputes the cut and the per-part weights from the CSR arrays and the
returned labels alone; nothing the partitioner reports about its own
output (``cut_size``, ``imbalance``) is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

#: balance bound for methods whose registry entry declares none (the
#: bound ``repro`` itself applies to such methods' recovered partitions)
DEFAULT_BOUND = 0.15


class CheckFailed(Exception):
    """A returned partition is malformed or out of balance."""


@dataclass(frozen=True)
class Checked:
    cut: int
    part_weights: np.ndarray
    imbalance: float


def check_partition(indptr, indices, vwgt, labels, k: int,
                    bound: Optional[float]) -> Checked:
    """Validate ``labels`` as a ``k``-way partition of a CSR graph.

    Each undirected edge is stored in both directions, so the cut counts
    the ``u < v`` half.  ``vwgt=None`` means unit vertex weights.  Raises
    :class:`CheckFailed` on a wrong shape or dtype, labels outside
    ``[0, k)``, an empty part, or an imbalance above ``bound``.
    """
    indptr = np.asarray(indptr)
    indices = np.asarray(indices)
    n = indptr.shape[0] - 1
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise CheckFailed(f"labels have shape {labels.shape}, want ({n},)")
    if not np.issubdtype(labels.dtype, np.integer):
        raise CheckFailed(f"labels have non-integer dtype {labels.dtype}")
    if n and (labels.min() < 0 or labels.max() >= k):
        raise CheckFailed(f"labels outside [0, {k})")
    src = np.repeat(np.arange(n), np.diff(indptr))
    once = src < indices
    cut = int(np.count_nonzero(labels[src[once]] != labels[indices[once]]))
    weights = np.ones(n) if vwgt is None else np.asarray(vwgt, dtype=float)
    part_weights = np.bincount(labels, weights=weights, minlength=k)
    if n >= k and (part_weights == 0).any():
        raise CheckFailed(f"empty parts {np.flatnonzero(part_weights == 0)}")
    imbalance = float(part_weights.max() / (part_weights.sum() / k) - 1.0)
    if bound is not None and imbalance > bound:
        raise CheckFailed(f"imbalance {imbalance:.4f} exceeds bound {bound}")
    return Checked(cut, part_weights, imbalance)

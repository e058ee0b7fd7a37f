"""Gaussian moment tensors of a centered multivariate normal.

Even-order moments factor into sums over pair partitions of products of
covariances (Isserlis' theorem); an order-w component is a sum of (w-1)!!
terms. Orders up to 12 are supported, which is what the second-order Laplace
correction consumes. :func:`isserlis_moment` enumerates the pairings of one
component; :meth:`MomentTable.dense` builds whole tensors by the recursion
M(w)[i1..iw] = sum_j cov[i1, ij] M(w-2)[i2..iw without ij].
"""

from __future__ import annotations

import numbers
from typing import Iterator, Sequence

import numpy as np

from .errors import InvalidInputError, UnsupportedOrderError

__all__ = ["pair_partitions", "pair_partition_count", "isserlis_moment", "MomentTable"]

MAX_ORDER = 12


def pair_partitions(items: Sequence) -> Iterator[list]:
    """Yield all partitions of ``items`` into unordered pairs.

    ``items`` must have even length; (len-1)!! partitions are produced.
    """
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for i, partner in enumerate(rest):
        for sub in pair_partitions(rest[:i] + rest[i + 1:]):
            yield [(first, partner)] + sub


def pair_partition_count(w: int) -> int:
    """(w-1)!! for even w: the number of terms in an order-w moment."""
    # a float is refused outright: counting up to 1e200 would never end
    if not isinstance(w, numbers.Integral) or w < 2 or w % 2:
        raise InvalidInputError(f"w must be a positive even integer, got {w!r}")
    count = 1
    for k in range(w - 1, 0, -2):
        count *= k
    return count


def _check_covariance(covariance: np.ndarray) -> np.ndarray:
    cov = np.asarray(covariance, dtype=np.float64)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise InvalidInputError("covariance must be a square matrix")
    if not np.allclose(cov, cov.T, rtol=1e-10, atol=1e-12):
        raise InvalidInputError("covariance must be symmetric")
    return cov


def isserlis_moment(indices: Sequence[int], covariance) -> float:
    """Moment component E[Q_{i1} ... Q_{iw}] for Q ~ N(0, covariance).

    Odd-length index sequences return 0 by contract (all odd moments of a
    centered Gaussian vanish). Orders above 12 are not supported.
    """
    cov = _check_covariance(covariance)
    idx = [int(i) for i in indices]
    if any(i < 0 or i >= cov.shape[0] for i in idx):
        raise InvalidInputError("index out of range for the covariance matrix")
    w = len(idx)
    if w == 0:
        return 1.0
    if w % 2:
        return 0.0
    if w > MAX_ORDER:
        raise UnsupportedOrderError(f"moment order {w} exceeds supported maximum {MAX_ORDER}")
    total = 0.0
    for pairing in pair_partitions(idx):
        prod = 1.0
        for i, j in pairing:
            prod *= cov[i, j]
        total += prod
    return total


class MomentTable:
    """Even-order moment tensors of N(0, covariance).

    ``dense(order)`` materializes the full symmetric array for contraction,
    once per order; the arrays are read-only.
    """

    def __init__(self, covariance):
        self.covariance = _check_covariance(covariance)
        sign, _ = np.linalg.slogdet(self.covariance)
        if sign <= 0:
            raise InvalidInputError("covariance must be positive definite")
        self.dim = self.covariance.shape[0]
        self._dense_cache: dict[int, np.ndarray] = {0: np.array(1.0)}

    def component(self, indices: Sequence[int]) -> float:
        # public API; perfbench/spans.py also wraps it by attribute
        return isserlis_moment(indices, self.covariance)

    def dense(self, order: int) -> np.ndarray:
        if order % 2 or order < 2 or order > MAX_ORDER:
            raise UnsupportedOrderError(
                f"dense moment arrays exist for even orders 2..{MAX_ORDER}")
        return self._moments(order)

    def _moments(self, order: int) -> np.ndarray:
        cached = self._dense_cache.get(order)
        if cached is None:
            # axis 0 of cov pairs with the first index; its axis 1 moves to
            # each other slot j in turn, leaving M(order-2) on the rest
            outer = np.multiply.outer(self.covariance, self._moments(order - 2))
            cached = sum(np.moveaxis(outer, 1, j) for j in range(1, order))
            cached.setflags(write=False)
            self._dense_cache[order] = cached
        return cached

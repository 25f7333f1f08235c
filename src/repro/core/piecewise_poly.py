"""Piecewise polynomial functions: the output type of the generalized merger.

A ``(k, d)``-piecewise polynomial (paper Section 2.2) has ``k`` interval
pieces, each agreeing with some degree-``d`` polynomial.  Pieces are stored
as :class:`~repro.core.fitpoly.PolynomialFit` objects, i.e. in each
interval's own orthonormal Gram basis, which keeps evaluation stable and
makes exact l2 computations cheap via Parseval.
"""

from __future__ import annotations

import math
from typing import List, Union

import numpy as np

from .fitpoly import PolynomialFit
from .integral import PiecewisePrefix
from .intervals import Partition
from .serialize import check_payload_tag
from .sparse import SparseFunction

__all__ = ["PiecewisePolynomial"]


class PiecewisePolynomial:
    """A function on ``{0, ..., n-1}`` that is a polynomial on each piece."""

    __slots__ = ("n", "fits", "_prefix_cache", "_query_table")

    def __init__(self, n: int, fits: List[PolynomialFit]) -> None:
        if not fits:
            raise ValueError("need at least one piece")
        expected_left = 0
        for fit in fits:
            if fit.a != expected_left:
                raise ValueError(
                    f"pieces must tile [0, n): expected left {expected_left}, "
                    f"got {fit.a}"
                )
            expected_left = fit.b + 1
        if expected_left != n:
            raise ValueError(f"pieces end at {expected_left - 1}, expected {n - 1}")
        self.n = int(n)
        self.fits = list(fits)
        self._prefix_cache = None
        # The serving engine's query table over this object, built on the
        # first query and freed with it (see repro.serve.engine).
        self._query_table = None

    # ------------------------------------------------------------------ #

    @property
    def num_pieces(self) -> int:
        return len(self.fits)

    @property
    def degree(self) -> int:
        """Largest degree across pieces."""
        return max(fit.degree for fit in self.fits)

    @property
    def partition(self) -> Partition:
        return Partition(self.n, np.asarray([fit.b for fit in self.fits]))

    def parameter_count(self) -> int:
        """Total stored numbers, ``sum (d_i + 1)`` — the space measure k(d+1)."""
        return sum(fit.degree + 1 for fit in self.fits)

    def __call__(self, x: Union[int, np.ndarray]) -> Union[float, np.ndarray]:
        """Evaluate at one position or an array of positions."""
        xs = np.atleast_1d(np.asarray(x, dtype=np.int64))
        if np.any((xs < 0) | (xs >= self.n)):
            raise IndexError("position out of range")
        piece_of = self.partition.locate(xs)
        out = np.empty(xs.shape)
        for u in np.unique(piece_of):
            mask = piece_of == u
            out[mask] = np.atleast_1d(self.fits[u].evaluate(xs[mask]))
        return float(out[0]) if np.ndim(x) == 0 else out

    def to_dense(self) -> np.ndarray:
        """Materialize as a length-``n`` array."""
        return np.concatenate([fit.to_dense() for fit in self.fits])

    # ------------------------------------------------------------------ #
    # Prefix integrals (synopsis range queries)
    # ------------------------------------------------------------------ #

    def prefix_table(self) -> PiecewisePrefix:
        """The (cached) prefix-integral table; built in one O(n) pass."""
        if self._prefix_cache is None:
            self._prefix_cache = PiecewisePrefix.from_polynomial_fits(
                self.n, self.fits
            )
        return self._prefix_cache

    def prefix_integral(self, x: Union[int, np.ndarray]) -> Union[float, np.ndarray]:
        """``F(x) = sum_{i < x} f(i)`` for ``x`` in ``[0, n]``, vectorized.

        The table is cached on first use; each query then costs
        ``O(log k + d)``.
        """
        out = self.prefix_table().integral(x)
        return float(out) if np.ndim(x) == 0 else out

    # ------------------------------------------------------------------ #
    # l2 geometry
    # ------------------------------------------------------------------ #

    def l2_sq_to_sparse(self, q: SparseFunction) -> float:
        """Exact ``||f - q||_2^2`` without densifying.

        Per piece, with orthonormal coefficients ``a_r`` and q-values
        ``y_j`` at nonzeros inside the piece:
        ``sum f^2 = sum a_r^2`` (Parseval), ``sum q^2 = sum y_j^2``, and the
        cross term touches only nonzeros.
        """
        if q.n != self.n:
            raise ValueError("universe sizes differ")
        total = 0.0
        for fit in self.fits:
            lo = int(np.searchsorted(q.indices, fit.a, side="left"))
            hi = int(np.searchsorted(q.indices, fit.b, side="right"))
            values = q.values[lo:hi]
            f_norm_sq = float(np.dot(fit.coefficients, fit.coefficients))
            q_norm_sq = float(np.dot(values, values))
            if values.size:
                f_at_nonzeros = np.atleast_1d(fit.evaluate(q.indices[lo:hi]))
                cross = float(np.dot(f_at_nonzeros, values))
            else:
                cross = 0.0
            total += max(f_norm_sq - 2.0 * cross + q_norm_sq, 0.0)
        return total

    def l2_to_sparse(self, q: SparseFunction) -> float:
        return math.sqrt(self.l2_sq_to_sparse(q))

    def l2_sq_to_dense(self, dense: np.ndarray) -> float:
        arr = np.asarray(dense, dtype=np.float64)
        if arr.size != self.n:
            raise ValueError("universe sizes differ")
        diff = self.to_dense() - arr
        return float(np.dot(diff, diff))

    def l2_to_dense(self, dense: np.ndarray) -> float:
        return math.sqrt(self.l2_sq_to_dense(dense))

    def total_mass(self) -> float:
        """``sum_i f(i)``, exact via the degree-0 Gram coefficient.

        On an ``N``-point interval ``p_0 = 1/sqrt(N)``, so the piece's mass
        is ``a_0 * sqrt(N)`` plus zero contribution from the higher basis
        polynomials (each is orthogonal to the constant).
        """
        return sum(
            float(fit.coefficients[0]) * math.sqrt(fit.num_points)
            for fit in self.fits
        )

    # ------------------------------------------------------------------ #
    # Serialization (synopses are meant to be stored)
    # ------------------------------------------------------------------ #

    kind = "piecewise_poly"
    schema_version = 1

    def to_dict(self) -> dict:
        """A JSON-serializable representation: ``sum (d_i + 1) + O(k)`` numbers."""
        return {
            "kind": self.kind,
            "schema": self.schema_version,
            "n": self.n,
            "fits": [fit.to_dict() for fit in self.fits],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PiecewisePolynomial":
        """Inverse of :meth:`to_dict`; validates that the pieces tile ``[0, n)``."""
        check_payload_tag(payload, cls)
        fits = [PolynomialFit.from_dict(fit) for fit in payload["fits"]]
        return cls(int(payload["n"]), fits)

    def __repr__(self) -> str:
        return (
            f"PiecewisePolynomial(n={self.n}, pieces={self.num_pieces}, "
            f"degree={self.degree})"
        )

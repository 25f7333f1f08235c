"""Batched query evaluation over stored synopses.

:class:`PrefixTable` normalizes every synopsis family to one vectorized
representation — piece left endpoints, cumulative boundary masses, and a
per-piece partial-sum polynomial in the scaled variable ``s = 2t/|I| - 1``
(see :class:`~repro.core.integral.PiecewisePrefix`; a constant piece is
the degree-0 special case whose partial sum is linear in ``t``).  A batch
of B range queries then costs one ``searchsorted`` over the ``k`` piece
boundaries plus ``O(d)`` vector arithmetic: ``O(B log k)`` total, instead
of B Python-level synopsis evaluations.

:class:`QueryEngine` answers batched queries against a
:class:`~repro.serve.store.SynopsisStore`.  A synopsis is immutable, so
its table is a pure function of it: the engine builds the table on the
first query and holds it on the synopsis object itself.  The table
therefore lives exactly as long as the hydrated synopsis — a streaming
refresh or re-registration installs a new synopsis (and so a new table)
for exactly the entry that changed, and cooling an entry under the
store's residency budget frees its table together with its payload.
There is no second cache to size.

The engine is thread-safe: every table lookup goes through the store's
atomic ``snapshot(name)``, and the table comes from the very synopsis
object that snapshot returned, so concurrent queries against a shard
being refreshed always observe a consistent ``(version, table)`` pair.
The numeric evaluation takes no lock — NumPy releases the GIL in the hot
kernels, which is what lets per-shard thread pools scale.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..baselines.wavelet import WaveletSynopsis
from ..core.histogram import Histogram, flatten
from ..core.integral import PiecewisePrefix
from ..core.intervals import initial_partition
from ..core.piecewise_poly import PiecewisePolynomial
from ..core.sparse import SparseFunction
from ..obs.metrics import Counter, MetricsRegistry
from .kinds import (
    GROUP_QUERY_KINDS,
    QUERY_KINDS,
    QueryMethods,
    group_tables_range_mean,
    group_tables_range_sum,
    group_tables_top_k,
    query_kind,
    run_query,
)
from .store import SynopsisStore

__all__ = [
    "CacheStats",
    "GROUP_QUERY_KINDS",
    "PrefixTable",
    "QueryEngine",
    "group_tables_range_mean",
    "group_tables_range_sum",
    "group_tables_top_k",
]

ArrayLike = Union[int, float, np.ndarray]

class PrefixTable:
    """Query operations over one synopsis's :class:`PiecewisePrefix` table.

    The wrapped table normalizes every family to piece boundaries plus
    within-piece partial-sum polynomials, so a batch of B range queries
    costs ``O(B log k)``; this class adds the query semantics (closed
    ranges, CDF normalization, quantile search, heavy buckets).
    """

    __slots__ = ("prefix",)

    def __init__(self, prefix: PiecewisePrefix) -> None:
        self.prefix = prefix

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_synopsis(cls, synopsis) -> "PrefixTable":
        """Build the table for any supported synopsis family.

        Histograms and piecewise polynomials expose (and cache) their own
        tables; wavelets go through their histogram view; sparse functions
        flatten over their initial partition, which represents them exactly
        with ``O(s)`` pieces — no densification.
        """
        if isinstance(synopsis, (Histogram, PiecewisePolynomial)):
            return cls(synopsis.prefix_table())
        if isinstance(synopsis, WaveletSynopsis):
            return cls(synopsis.to_histogram().prefix_table())
        if isinstance(synopsis, SparseFunction):
            exact = flatten(synopsis, initial_partition(synopsis))
            return cls(exact.prefix_table())
        raise TypeError(f"unsupported synopsis type {type(synopsis).__name__}")

    # ------------------------------------------------------------------ #
    # Primitives
    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        return self.prefix.n

    @property
    def num_pieces(self) -> int:
        return self.prefix.num_pieces

    @property
    def total_mass(self) -> float:
        return self.prefix.total_mass

    def piece_masses(self) -> np.ndarray:
        return self.prefix.piece_masses()

    def integral(self, x: ArrayLike) -> np.ndarray:
        """``F(x) = sum_{i < x} f(i)`` for ``x`` in ``[0, n]``, vectorized."""
        return self.prefix.integral(x)

    # ------------------------------------------------------------------ #
    # Queries (array-in / array-out; scalars map to scalars)
    # ------------------------------------------------------------------ #

    def range_sum(self, a: ArrayLike, b: ArrayLike) -> Union[float, np.ndarray]:
        """``sum_{i in [a, b]} f(i)`` over closed ranges (batched)."""
        aa = np.asarray(a, dtype=np.int64)
        bb = np.asarray(b, dtype=np.int64)
        if np.any((aa < 0) | (bb >= self.n) | (aa > bb)):
            raise ValueError(f"ranges must satisfy 0 <= a <= b < {self.n}")
        out = self.integral(bb + 1) - self.integral(aa)
        return float(out) if np.ndim(a) == 0 and np.ndim(b) == 0 else out

    def range_mean(self, a: ArrayLike, b: ArrayLike) -> Union[float, np.ndarray]:
        """Mean of ``f`` over closed ranges: ``range_sum(a, b) / (b - a + 1)``.

        A closed range ``[a, b]`` with ``a <= b`` always covers
        ``b - a + 1 >= 1`` positions, so the division is safe; the
        zero-length edge (``a > b``, an empty range whose mean is 0/0)
        is rejected up front by :meth:`range_sum`'s shared validation
        instead of silently returning NaN.  A single-point range
        ``a == b`` degenerates to the point mass.
        """
        sums = self.range_sum(a, b)
        lengths = np.asarray(b, dtype=np.int64) - np.asarray(a, dtype=np.int64) + 1
        out = sums / lengths.astype(np.float64)
        return float(out) if np.ndim(a) == 0 and np.ndim(b) == 0 else out

    def point_mass(self, x: ArrayLike) -> Union[float, np.ndarray]:
        """``f(x)`` (batched)."""
        xs = np.asarray(x, dtype=np.int64)
        if np.any((xs < 0) | (xs >= self.n)):
            raise ValueError(f"positions must lie in [0, {self.n})")
        out = self.integral(xs + 1) - self.integral(xs)
        return float(out) if np.ndim(x) == 0 else out

    def cdf(self, x: ArrayLike) -> Union[float, np.ndarray]:
        """``P[X <= x] = F(x + 1) / total`` (batched; needs positive mass)."""
        total = self.total_mass
        if total <= 0.0:
            raise ValueError("cdf requires positive total mass")
        xs = np.asarray(x, dtype=np.int64)
        if np.any((xs < 0) | (xs >= self.n)):
            raise ValueError(f"positions must lie in [0, {self.n})")
        out = self.integral(xs + 1) / total
        return float(out) if np.ndim(x) == 0 else out

    def quantile(self, q: ArrayLike) -> Union[int, np.ndarray]:
        """Smallest ``x`` with ``F(x + 1) >= q * total`` (batched).

        Piecewise-constant tables (every family except the polynomial one)
        are answered exactly for any sign pattern by a two-level
        ``searchsorted`` over the running max of per-piece prefix values:
        ``O(B log k)``.  Higher-degree tables fall back to vectorized
        bisection over the domain (``O(B log n log k)``), which is only
        valid for a nondecreasing prefix integral — a certified property;
        a polynomial reconstruction that dips negative raises instead of
        silently returning a wrong crossing.
        """
        total = self.total_mass
        if total <= 0.0:
            raise ValueError("quantile requires positive total mass")
        qs = np.asarray(q, dtype=np.float64)
        # Written so that NaN (which compares False both ways) fails too.
        if not np.all((qs >= 0.0) & (qs <= 1.0)):
            raise ValueError("quantile levels must lie in [0, 1]")
        targets = np.atleast_1d(qs) * total
        if self.prefix.is_piecewise_linear:
            out = self._quantile_linear(targets)
        elif self.prefix.is_nondecreasing:
            out = self._quantile_bisect(targets)
        else:
            raise ValueError(
                "quantile is undefined for this synopsis: its reconstruction "
                "goes negative, so the prefix integral is not monotone"
            )
        return int(out[0]) if np.ndim(q) == 0 else out

    def _quantile_linear(self, targets: np.ndarray) -> np.ndarray:
        """Exact first crossing for piecewise-constant ``f`` of any sign.

        Within piece ``u`` the prefix is linear, so its max over the piece's
        positions ``z in (left_u, left_u + L_u]`` sits at an endpoint; the
        running max of those per-piece maxima is nondecreasing and supports
        ``searchsorted`` even when individual pieces are negative.
        """
        prefix = self.prefix
        cum = prefix.boundary
        lengths = prefix.lengths
        values = np.diff(cum) / lengths
        piece_max = np.maximum(cum[:-1] + values, cum[1:])
        running = np.maximum.accumulate(piece_max)
        u = np.minimum(
            np.searchsorted(running, targets, side="left"),
            prefix.num_pieces - 1,
        )
        vu = values[u]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.ceil((targets - cum[u]) / vu)
        t = np.where(vu > 0, t, 1.0)
        t = np.clip(t, 1.0, lengths[u])
        return prefix.lefts[u] + t.astype(np.int64) - 1

    def _quantile_bisect(self, targets: np.ndarray) -> np.ndarray:
        """Vectorized binary search; requires a nondecreasing prefix."""
        lo = np.zeros(targets.shape, dtype=np.int64)
        hi = np.full(targets.shape, self.n - 1, dtype=np.int64)
        while np.any(lo < hi):
            mid = (lo + hi) >> 1
            reached = self.integral(mid + 1) >= targets
            hi = np.where(reached, mid, hi)
            lo = np.where(reached, lo, mid + 1)
        return lo

    def top_k_buckets(self, m: int) -> List[Tuple[int, int, float]]:
        """The ``m`` heaviest pieces as ``(left, right, mass)``, mass-descending."""
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        masses = self.piece_masses()
        order = np.argsort(-masses, kind="stable")[:m]
        lefts = self.prefix.lefts
        rights = self.prefix.rights()
        return [
            (int(lefts[u]), int(rights[u]), float(masses[u])) for u in order
        ]

    def _piece_values(self) -> np.ndarray:
        """Per-piece constant values of a piecewise-constant table."""
        return self.piece_masses() / self.prefix.lengths

    def inner_product(self, other: "PrefixTable") -> float:
        """``<f, g> = sum_i f(i) g(i)`` between two tables on one domain.

        Piecewise-constant tables (every family except the polynomial
        one) evaluate by the closed form over the *merged* partition: on
        each merged segment both functions are constant, so the segment
        contributes ``v_f v_g |segment|`` — ``O(k_f + k_g)`` total, with
        the constants read straight off the cumulative boundary masses.
        A polynomial table falls back to exact per-position evaluation
        through its prefix integral (``O(n log k)``), which matches the
        closed form bitwise on constant pieces but densifies the domain.
        """
        if self.n != other.n:
            raise ValueError(
                f"inner product needs matching domains, got n={self.n} "
                f"and n={other.n}"
            )
        if self.prefix.is_piecewise_linear and other.prefix.is_piecewise_linear:
            cuts = np.union1d(self.prefix.lefts, other.prefix.lefts)
            lengths = np.diff(np.append(cuts, self.n))
            ua = np.searchsorted(self.prefix.lefts, cuts, side="right") - 1
            ub = np.searchsorted(other.prefix.lefts, cuts, side="right") - 1
            return float(
                np.sum(
                    self._piece_values()[ua]
                    * other._piece_values()[ub]
                    * lengths
                )
            )
        xs = np.arange(self.n, dtype=np.int64)
        return float(np.dot(self.point_mass(xs), other.point_mass(xs)))


class CacheStats:
    """Hit/miss counters for the engine's prefix-table fetches.

    Every table fetch counts once: a hit when the snapshot's synopsis
    already holds its table, a miss when the fetch built one.  The engine
    keeps one engine-global instance plus one per entry name, so table
    reuse is reportable per entry (a hot entry hitting 99% and one
    rebuilt on every query look identical in the global numbers).

    The counts live in :class:`~repro.obs.metrics.Counter` instruments —
    normally registered in the engine's
    :class:`~repro.obs.metrics.MetricsRegistry`, so ``cache_info()`` is a
    view over the same series the ``/metrics`` exposition serves; a
    standalone ``CacheStats()`` owns private counters.
    """

    __slots__ = ("_hits", "_misses")

    def __init__(
        self,
        hits: int = 0,
        misses: int = 0,
        counters: Optional[Tuple[Any, Any]] = None,
    ) -> None:
        if counters is not None:
            self._hits, self._misses = counters
        else:
            self._hits, self._misses = Counter(), Counter()
        for counter, initial in ((self._hits, hits), (self._misses, misses)):
            if initial:
                counter.inc(initial)

    def hit(self) -> None:
        self._hits.inc()

    def miss(self) -> None:
        self._misses.inc()

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    def __repr__(self) -> str:
        return f"CacheStats(hits={self.hits}, misses={self.misses})"

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}


class QueryEngine(QueryMethods):
    """Batched queries over a :class:`SynopsisStore`.

    All query methods are array-in/array-out NumPy operations; scalar
    arguments return scalars.  Each synopsis's prefix table is built on
    its first query and held on the synopsis object, so it lives as long
    as that hydrated synopsis: a refresh replaces only its own entry's
    table, and memory is bounded by the store's residency budget alone.
    """

    #: Every query kind the engine answers; each gets a latency histogram
    #: and a call counter in the registry, labeled ``kind=...`` (plus the
    #: engine's own labels, e.g. its shard index).
    QUERY_KINDS = QUERY_KINDS

    def __init__(
        self,
        store: SynopsisStore,
        registry: Optional[MetricsRegistry] = None,
        labels: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.store = store
        # Per-engine registry by default, so two engines never share
        # counters by accident; a ShardRouter injects one shared registry
        # with per-shard labels instead, making the fleet view mergeable.
        self.registry = MetricsRegistry() if registry is None else registry
        self._labels = {k: str(v) for k, v in (labels or {}).items()}
        self.stats = CacheStats(
            counters=(
                self.registry.counter(
                    "engine_cache_hits_total",
                    "prefix-table fetches that reused the synopsis's table",
                    **self._labels,
                ),
                self.registry.counter(
                    "engine_cache_misses_total",
                    "prefix-table fetches that built the table",
                    **self._labels,
                ),
            )
        )
        self._entry_stats: Dict[str, CacheStats] = {}
        # Pre-created per-kind instruments: the query hot path must not
        # pay a registry lookup (dict + label-key build) per call.
        self._instruments = {
            kind: (
                self.registry.histogram(
                    "engine_query_seconds",
                    "batched query evaluation latency",
                    kind=kind,
                    **self._labels,
                ),
                self.registry.counter(
                    "engine_queries_total",
                    "batched query evaluations",
                    kind=kind,
                    **self._labels,
                ),
            )
            for kind in self.QUERY_KINDS
        }
        # Guards the per-entry stats map; snapshot hydration, table
        # construction, and table *evaluation* all happen outside it.
        self._lock = threading.Lock()
        # Dropping a store entry must drop its per-entry stats too, or a
        # long-lived server churning entries leaks one CacheStats (and
        # one registry series) per removed name.
        store._add_removal_listener(self)

    # ------------------------------------------------------------------ #

    def _stats_for(self, name: str) -> CacheStats:
        stats = self._entry_stats.get(name)
        if stats is None:
            stats = self._entry_stats[name] = CacheStats(
                counters=(
                    self.registry.counter(
                        "engine_entry_cache_hits_total", entry=name, **self._labels
                    ),
                    self.registry.counter(
                        "engine_entry_cache_misses_total", entry=name, **self._labels
                    ),
                )
            )
        return stats

    def observe_query(self, kind: str, seconds: float) -> None:
        """Record one query evaluation into the per-kind latency series.

        :meth:`query` calls this implicitly; the shard router calls it
        for pair and group kinds, which it evaluates on its own thread
        over tables from several shards, so per-kind series stay complete
        regardless of the path a query took.
        """
        histogram, counter = self._instruments[kind]
        histogram.observe(seconds)
        counter.inc()

    def forget(self, name: str) -> None:
        """Drop all per-entry state for a removed store entry.

        Called by the store when ``remove(name)`` runs: the entry's
        per-entry ``CacheStats`` is dropped and its registry series are
        unregistered, so exposition does not accumulate series for dead
        entries.  (Its table went with the store's synopsis reference.)
        """
        with self._lock:
            self._entry_stats.pop(name, None)
        self.registry.drop(entry=name, **self._labels)

    def table(self, name: str) -> PrefixTable:
        """The prefix table for store entry ``name``."""
        return self.table_versioned(name)[1]

    def table_versioned(self, name: str) -> Tuple[int, PrefixTable]:
        """The entry's current ``(version, table)`` pair, atomically.

        The pair comes from one atomic ``store.snapshot`` read, and the
        table is the one held by the very synopsis object that snapshot
        returned — built from it on its first fetch — so the table always
        matches the version reported with it: the consistency unit the
        concurrent serving front end reports per answer.

        Each fetch counts one hit or one miss, a miss meaning that this
        fetch built the synopsis's table.  Two threads missing on the same
        synopsis may both build it; both builds are counted as the misses
        they genuinely were, and either (equal) table serves.
        """
        version, synopsis = self.store.snapshot(name)
        with self._lock:
            entry_stats = self._stats_for(name)
        table = getattr(synopsis, "_query_table", None)
        if table is None:
            table = PrefixTable.from_synopsis(synopsis)
            # object.__setattr__: the wavelet synopsis is a frozen dataclass.
            object.__setattr__(synopsis, "_query_table", table)
            self.stats.miss()
            entry_stats.miss()
        else:
            self.stats.hit()
            entry_stats.hit()
        return version, table

    def warm(self, names: Optional[List[str]] = None) -> int:
        """Prefetch prefix tables for ``names`` (default: every entry).

        Hydrates lazily-loaded entries as a side effect, so a store loaded
        from disk can pay its deserialization cost up front instead of on
        the first query.  Returns the number of tables fetched.
        """
        names = self.store.names() if names is None else names
        for name in names:
            self.table(name)
        return len(names)

    def cache_info(self) -> dict:
        """Engine-global hit/miss counters plus the per-entry breakdown."""
        with self._lock:
            return {
                "hits": self.stats.hits,
                "misses": self.stats.misses,
                "entries": {
                    name: stats.as_dict()
                    for name, stats in self._entry_stats.items()
                },
            }

    def entry_cache_info(self, name: str) -> Dict[str, int]:
        """Hit/miss counters for one entry (zeros if never queried)."""
        with self._lock:
            stats = self._entry_stats.get(name)
            return stats.as_dict() if stats is not None else CacheStats().as_dict()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def resolve_members(self, spec: Any) -> List[str]:
        """Member names for a group query over this engine's store."""
        return self.store.resolve_members(spec)

    def query(self, kind: str, name: Any, *args: Any) -> Tuple[Any, Any]:
        """One query of any kind: ``(value, version)``.

        ``version`` is the snapshot version the answer was computed from
        (for group kinds, the ``{member: version}`` dict).  The latency
        lands in the kind's series even when the query fails.
        """
        spec = query_kind(kind)
        start = time.perf_counter()
        try:
            return run_query(self, spec, name, args)
        finally:
            self.observe_query(kind, time.perf_counter() - start)

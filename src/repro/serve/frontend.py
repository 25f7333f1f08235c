"""Asynchronous serving front end over a :class:`~repro.serve.router.ShardRouter`.

:class:`AsyncServingFrontend` accepts one *multi-name batch* — a list of
:class:`QueryRequest` objects, each itself a vectorized query (range_sum /
range_mean / point_mass / cdf / quantile / top_k / inner_product /
heavy_hitters) addressed to one entry —
fans the batch out per shard, runs each shard's work on a thread pool
(NumPy releases the GIL in the hot kernels, so shards evaluate truly
concurrently on multicore hosts), and reassembles the answers in request
order.

Within a shard the front end *coalesces* in one pass (:func:`coalesce`):
it sorts the requests into per-``(name, kind)`` :class:`ColumnGroup` s —
the request indices plus one argument column per parameter, in the
dtype the kind's evaluator reads — so each group is one vectorized
engine call whose answer splits back with one ``tolist()``.  A request
whose arguments are all Python/NumPy scalars goes straight into the
column lists with no per-request NumPy call; 1-D array arguments are
broadcast within their request, then concatenated behind the scalars.
Higher-dimensional arguments, non-coalescible kinds, group kinds, and
the requests of a group whose columns cannot hold a value (an int beyond
int64, a NaN position) are evaluated one by one, so they fail or succeed
exactly as they would alone.  That amortizes the per-request Python
dispatch across the group — the dominant cost for real serving traffic,
where millions of users each send small batches — and is why the
sharded front end beats a request-at-a-time single engine even on one
core.  If a group's stacked call fails (one request holds an invalid
position), every request of the group is retried individually, so one
bad range cannot poison its neighbors.  The process tier
(:mod:`repro.serve.workers`) carries the same groups over its wire and
hands them to :meth:`AsyncServingFrontend.serve_columns` in the worker:
both tiers evaluate through this one path.

Every :class:`QueryResult` carries the store *version* its answer was
computed from.  Versions come from the engine's atomic
``table_versioned`` snapshot, and writes (:meth:`AsyncServingFrontend.extend`
/ :meth:`~AsyncServingFrontend.refresh`) run on the same thread pool
holding the target shard's write lock — so a streaming refresh can never
race a query against a half-bumped entry, and every answer is
attributable to one consistent ``(name, version)`` snapshot.

Every entry has exactly one placement: a request goes to the shard the
router's map assigns its name.  Because ``ShardRouter.migrate`` can move
an entry between the route decision and the evaluation, a miss on the
routed shard re-resolves against the *current* map and retries there,
so live migration never drops a query.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.jsonlog import SlowQueryLog
from ..obs.metrics import MetricsRegistry
from ..obs.trace import TraceContext, span
from .persistence import StoreCorruptionError
from .kinds import KINDS, query_kind
from .router import Shard, ShardRouter
from .store import StoreEntry

__all__ = [
    "QUERY_KINDS",
    "AsyncServingFrontend",
    "ColumnGroup",
    "QueryRequest",
    "QueryResult",
    "coalesce",
]

#: kind -> number of positional query arguments (a view of the kind table).
QUERY_KINDS: Dict[str, int] = {name: spec.arity for name, spec in KINDS.items()}

# Arity of every coalescible kind (its requests stack into columns).
_COLUMN_ARITY: Dict[str, int] = {
    name: spec.arity for name, spec in KINDS.items() if spec.coalescible
}

# Arguments that go straight into a column: Python and NumPy scalars.
_SCALAR_TYPES = (int, float, np.generic)

_REQUEST_ERRORS = (
    KeyError,
    ValueError,
    IndexError,
    TypeError,
    OverflowError,
    StoreCorruptionError,
)


@dataclass(frozen=True)
class QueryRequest:
    """One vectorized query addressed to one entry name."""

    kind: str
    name: str
    args: Tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        spec = query_kind(self.kind)
        # Normalize args to a tuple of positional arguments up front.  A
        # dict or a string has a len() too, so without this check a
        # request like args={"q": 0.5} or args="ab" would sail past the
        # arity test below only to die deep inside evaluation with a
        # baffling dtype error ("could not convert string to float: 'q'").
        if isinstance(self.args, (str, bytes)) or isinstance(self.args, Mapping):
            raise TypeError(
                f"args must be a tuple of positional arguments "
                f"(e.g. {spec.form}), got "
                f"{type(self.args).__name__} {self.args!r}"
            )
        try:
            object.__setattr__(self, "args", tuple(self.args))
        except TypeError:
            raise TypeError(
                f"args must be a tuple of positional arguments "
                f"(e.g. {spec.form}), got "
                f"{type(self.args).__name__}"
            ) from None
        spec.check_arity(self.args)


@dataclass
class QueryResult:
    """One answer, tagged with the snapshot version that produced it.

    For group-by kinds ``version`` is a ``{member: version}`` dict — one
    snapshot version per cohort member — instead of a single int.
    """

    index: int
    name: str
    kind: str
    value: Any = None
    version: Any = -1
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


class ColumnGroup:
    """Same-``(name, kind)`` requests stacked into argument columns.

    ``index`` lists the request indices in stacked order: the scalar
    requests first, one element each, then the array requests, whose
    element counts are ``sizes``.  ``columns`` holds one 1-D array of the
    kind's argument dtype per parameter.
    """

    __slots__ = ("name", "kind", "index", "columns", "sizes")

    def __init__(
        self,
        name: str,
        kind: str,
        index: List[int],
        columns: Tuple[np.ndarray, ...],
        sizes: Sequence[int] = (),
    ) -> None:
        self.name = name
        self.kind = kind
        self.index = index
        self.columns = columns
        self.sizes = list(sizes)

    def __len__(self) -> int:
        return len(self.index)

    @property
    def scalars(self) -> int:
        """How many requests (the first ones) hold one element each."""
        return len(self.index) - len(self.sizes)

    def values(self, stacked: np.ndarray) -> List[Any]:
        """Per-request answers, aligned with ``index``."""
        scalars = self.scalars
        out = stacked[:scalars].tolist()
        offset = scalars
        for size in self.sizes:
            # Copy the slice out of the stacked answer: a view would pin
            # the whole group's array alive for as long as any one result
            # is retained.
            out.append(stacked[offset : offset + size].copy())
            offset += size
        return out

    def requests(self) -> Iterator[Tuple[int, Tuple[Any, ...]]]:
        """Each request's ``(index, args)``, read back from the columns."""
        scalars = self.scalars
        heads = [column[:scalars].tolist() for column in self.columns]
        yield from zip(self.index, zip(*heads))
        offset = scalars
        for index, size in zip(self.index[scalars:], self.sizes):
            yield index, tuple(
                column[offset : offset + size] for column in self.columns
            )
            offset += size


def coalesce(
    items: Sequence[Tuple[int, QueryRequest]],
) -> Tuple[List[ColumnGroup], List[Tuple[int, QueryRequest]]]:
    """Sort ``(index, request)`` pairs into column groups, in one pass.

    Returns ``(groups, singles)``: one :class:`ColumnGroup` per
    ``(name, kind)`` of coalescible requests, and the pairs to evaluate
    one by one.  Columns are cast to the kind's dtype exactly as its
    evaluator would cast each request, so stacking never changes an
    answer; a group whose columns cannot be cast is returned as singles.
    """
    scalar: Dict[Tuple[str, str], List[Tuple[int, QueryRequest]]] = {}
    arrays: Dict[Tuple[str, str], List[Tuple[int, QueryRequest, List[Any]]]] = {}
    singles: List[Tuple[int, QueryRequest]] = []
    for index, request in items:
        args = request.args
        if _COLUMN_ARITY.get(request.kind) != len(args):
            singles.append((index, request))
            continue
        for arg in args:
            if not isinstance(arg, _SCALAR_TYPES):
                ndim = max(np.ndim(value) for value in args)
                break
        else:
            ndim = 0
        key = (request.name, request.kind)
        if ndim == 0:
            members = scalar.get(key)
            if members is None:
                scalar[key] = [(index, request)]
            else:
                members.append((index, request))
        elif ndim == 1:
            # Broadcast each request's arguments against each other BEFORE
            # concatenating across requests: a request like (scalar a,
            # array b) must occupy the same positions in every column, or
            # neighbors' a/b pairs would silently cross.
            try:
                broadcast = np.broadcast_arrays(
                    *[np.atleast_1d(np.asarray(arg)) for arg in args]
                )
            except _REQUEST_ERRORS:
                singles.append((index, request))
            else:
                arrays.setdefault(key, []).append((index, request, broadcast))
        else:
            # Stacking happens along axis 0, so higher-dimensional query
            # arrays (which the engine accepts) would split back wrongly.
            singles.append((index, request))
    groups: List[ColumnGroup] = []
    for key in {**scalar, **arrays}:
        name, kind = key
        spec = KINDS[kind]
        members = scalar.get(key, [])
        stacked = arrays.get(key, [])
        heads = list(zip(*[request.args for _, request in members]))
        try:
            columns = tuple(
                _column(
                    spec.dtype,
                    heads[p] if heads else (),
                    [broadcast[p] for _, _, broadcast in stacked],
                )
                for p in range(spec.arity)
            )
        except _REQUEST_ERRORS:
            singles.extend(members)
            singles.extend((index, request) for index, request, _ in stacked)
            continue
        order = [index for index, _ in members]
        order.extend(index for index, _, _ in stacked)
        sizes = [broadcast[0].size for _, _, broadcast in stacked]
        groups.append(ColumnGroup(name, kind, order, columns, sizes))
    return groups, singles


def _column(dtype: Any, head: Sequence[Any], parts: List[np.ndarray]) -> np.ndarray:
    """One argument column: the scalar requests' values, then the array
    requests' broadcast parts, cast as the kind's evaluator casts them."""
    column = np.array(head, dtype=dtype)
    if parts:
        column = np.concatenate([column, *parts], dtype=dtype, casting="unsafe")
    return column


class AsyncServingFrontend:
    """Concurrent batched queries and writes over a sharded store.

    Parameters
    ----------
    router:
        The shard router to serve.  A one-shard router is fine; the front
        end then degenerates to coalescing plus a single worker.
    max_workers:
        Thread-pool size; defaults to one worker per shard.
    coalesce:
        Merge same-``(name, kind)`` requests within a shard into one
        vectorized call (on by default; disable to measure its effect).
    registry:
        Metrics registry to report into; defaults to the router's, so the
        front end's counters live next to the per-shard engine series in
        one exposition document.
    slow_query_log:
        Where batches slower than the threshold get recorded; a default
        100 ms :class:`~repro.obs.jsonlog.SlowQueryLog` if omitted.
    """

    def __init__(
        self,
        router: ShardRouter,
        max_workers: Optional[int] = None,
        coalesce: bool = True,
        registry: Optional[MetricsRegistry] = None,
        slow_query_log: Optional[SlowQueryLog] = None,
    ) -> None:
        self.router = router
        self.coalesce = coalesce
        self.registry = router.registry if registry is None else registry
        self.slow_log = (
            SlowQueryLog() if slow_query_log is None else slow_query_log
        )
        #: The trace of the most recent batch (REPL / debugging surface).
        self.last_trace: Optional[TraceContext] = None
        self._c_requests = self.registry.counter(
            "frontend_requests_total", "individual query requests accepted"
        )
        self._c_batches = self.registry.counter(
            "frontend_batches_total", "multi-name batches served"
        )
        self._c_coalesced = self.registry.counter(
            "frontend_coalesced_requests_total",
            "requests answered from a >1-request coalesced engine call",
        )
        self._c_errors = self.registry.counter(
            "frontend_request_errors_total",
            "requests that returned a per-request error",
        )
        self._c_migrated_retries = self.registry.counter(
            "frontend_migrated_retries_total",
            "requests re-served on the current shard after a live migration",
        )
        # Batch sizes are counts, not seconds: buckets 1..~1M instead of
        # the latency range.
        self._h_batch_size = self.registry.histogram(
            "frontend_batch_size",
            "requests per batch",
            exp_range=(0, 20),
        )
        self._h_batch_seconds = self.registry.histogram(
            "frontend_batch_seconds", "end-to-end batch latency"
        )
        # Per-shard series, pre-minted so the per-batch hot path never
        # builds a registry key.  These count *requests routed* (before
        # coalescing), so summing across shards must equal
        # frontend_requests_total — the mergeability check the tests pin.
        self._per_shard = {
            shard.index: (
                self.registry.histogram(
                    "frontend_shard_seconds",
                    "per-shard evaluation time within a batch",
                    shard=str(shard.index),
                ),
                self.registry.counter(
                    "frontend_shard_requests_total",
                    "requests routed to the shard",
                    shard=str(shard.index),
                ),
            )
            for shard in router.shards
        }
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers or max(router.num_shards, 1),
            thread_name_prefix="repro-serve",
        )

    def _shard_instruments(self, index: int):
        instruments = self._per_shard.get(index)
        if instruments is None:  # a shard added after construction
            instruments = self._per_shard[index] = (
                self.registry.histogram(
                    "frontend_shard_seconds",
                    "per-shard evaluation time within a batch",
                    shard=str(index),
                ),
                self.registry.counter(
                    "frontend_shard_requests_total",
                    "requests routed to the shard",
                    shard=str(index),
                ),
            )
        return instruments

    # ------------------------------------------------------------------ #
    # Migration drain
    # ------------------------------------------------------------------ #

    def _migration_target(
        self, shard: Shard, name: str, exc: Exception
    ) -> Optional[Shard]:
        """Where to retry after a miss caused by a live migration.

        A KeyError on the routed shard when the *current* map places the
        name elsewhere means the entry moved between routing and
        evaluation — the defining race of ``ShardRouter.migrate``.  Any
        other failure returns None.
        """
        if not isinstance(exc, KeyError):
            return None
        current = self.router.shard_map.shard_of(name)
        if current == shard.index:
            return None
        return self.router.shards[current]

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "AsyncServingFrontend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    async def query_batch(
        self, requests: Sequence[QueryRequest]
    ) -> List[QueryResult]:
        """Answer a multi-name batch; results come back in request order.

        Requests are grouped per shard and each shard's group runs as one
        thread-pool job; the ``asyncio.gather`` below is the only
        synchronization point, so slow shards never block fast ones from
        *starting*.  Per-request failures (unknown name, bad range,
        corrupt payload) are reported in ``QueryResult.error`` rather
        than raised, keeping one poisoned request from failing the batch.
        """
        results, _ = await self._query_batch(list(enumerate(requests)), ())
        return results

    async def _query_batch(
        self,
        items: Sequence[Tuple[int, QueryRequest]],
        groups: Sequence[ColumnGroup],
        split: bool = True,
    ) -> Tuple[List[QueryResult], List[Tuple[ColumnGroup, Tuple[Any, Any]]]]:
        """Serve ``items`` plus pre-stacked ``groups`` (whose indices share
        the items' index space).  Returns the results in index order and,
        unless ``split``, each answered group's ``(stacked, version)``
        instead of its per-request results."""
        started = time.perf_counter()
        trace = TraceContext("query_batch")
        count = len(items) + sum(len(group) for group in groups)
        self._c_batches.inc()
        self._c_requests.inc(count)
        self._h_batch_size.observe(max(count, 1))
        with trace.span("route", requests=count):
            shard_of = self.router.shard_map.shard_of
            by_shard: Dict[int, Tuple[list, list]] = {}
            group_items: List[Tuple[int, QueryRequest]] = []
            for index, request in items:
                if KINDS[request.kind].group:
                    # Group kinds span shards; they run as their own
                    # pool job instead of landing on any one shard.
                    group_items.append((index, request))
                    continue
                shard = shard_of(request.name)
                work = by_shard.get(shard)
                if work is None:
                    work = by_shard[shard] = ([], [])
                work[0].append((index, request))
            for group in groups:
                shard = shard_of(group.name)
                by_shard.setdefault(shard, ([], []))[1].append(group)
        loop = asyncio.get_running_loop()
        jobs = [
            loop.run_in_executor(
                self._executor,
                self._serve_shard,
                self.router.shards[s],
                shard_items,
                shard_groups,
                split,
                trace,
            )
            for s, (shard_items, shard_groups) in by_shard.items()
        ]
        if group_items:
            jobs.append(
                loop.run_in_executor(
                    self._executor, self._serve_groups, group_items, trace
                )
            )
        gathered = await asyncio.gather(*jobs)
        answered: List[Tuple[ColumnGroup, Tuple[Any, Any]]] = []
        with trace.span("reassemble"):
            results: List[Optional[QueryResult]] = [None] * count
            for shard_results, shard_answered in gathered:
                for result in shard_results:
                    results[result.index] = result
                answered.extend(shard_answered)
            ordered = [r for r in results if r is not None]
        errors = sum(1 for r in ordered if not r.ok)
        if errors:
            self._c_errors.inc(errors)
        elapsed = time.perf_counter() - started
        self._h_batch_seconds.observe(elapsed)
        self.last_trace = trace
        with trace.bound():  # attach the trace id to the slow-log entry
            self.slow_log.record(
                "query_batch",
                f"batch[{count}]",
                elapsed,
                requests=count,
                shards=len(by_shard),
                errors=errors,
            )
        return ordered, answered

    def serve(self, requests: Sequence[QueryRequest]) -> List[QueryResult]:
        """Synchronous convenience wrapper around :meth:`query_batch`.

        Runs its own event loop, so it must not be called from a
        coroutine — use ``await query_batch(...)`` there.
        """
        return asyncio.run(self.query_batch(requests))

    def serve_columns(
        self,
        groups: Sequence[ColumnGroup],
        items: Sequence[Tuple[int, QueryRequest]] = (),
    ) -> Tuple[List[Optional[Tuple[Any, Any]]], List[QueryResult]]:
        """Serve pre-stacked column groups plus ``(index, request)`` pairs.

        The process tier's worker entry point: a group's answer stays one
        stacked array.  Returns ``(answers, results)``: per group, in
        order, its ``(stacked, version)`` — or None when its requests
        were answered one by one, which then appear in ``results`` — and
        the results of every other request.  Indices of groups and items
        must together be ``0 .. n-1``, each once.
        """
        results, answered = asyncio.run(
            self._query_batch(list(items), list(groups), split=False)
        )
        by_group = {id(group): answer for group, answer in answered}
        return [by_group.get(id(group)) for group in groups], results

    # ------------------------------------------------------------------ #
    # Writes (serialized by the per-shard write lock)
    # ------------------------------------------------------------------ #

    async def extend(self, name: str, samples: np.ndarray) -> StoreEntry:
        """Absorb a sample batch into a streaming entry, off the event loop."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, self.router.extend, name, samples
        )

    async def refresh(self, name: str) -> StoreEntry:
        """Force-rebuild a streaming entry, off the event loop."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, self.router.refresh, name)

    async def register_auto(
        self, name: str, data, budget, **plan_options: Any
    ) -> StoreEntry:
        """Auto-plan and register ``name`` (see ``ShardRouter.register_auto``),
        off the event loop — candidate builds can take a while.  Planner
        keywords (``families=``, ``k_grid=``, ...) pass through, so the
        front end mirrors the store/router surface 1:1."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor,
            lambda: self.router.register_auto(name, data, budget, **plan_options),
        )

    async def register_many(
        self, named_datasets, budget, **plan_options: Any
    ) -> List[StoreEntry]:
        """Bulk-register a cohort (see ``ShardRouter.register_many``),
        off the event loop — one amortized plan covers the whole batch.
        ``cohort=``, ``families=``, ``k_grid=`` pass through."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor,
            lambda: self.router.register_many(
                named_datasets, budget, **plan_options
            ),
        )

    # ------------------------------------------------------------------ #
    # Group-by evaluation (runs on the thread pool)
    # ------------------------------------------------------------------ #

    def _serve_groups(
        self,
        items: List[Tuple[int, QueryRequest]],
        trace: Optional[TraceContext] = None,
    ) -> Tuple[List[QueryResult], list]:
        if trace is not None:
            with trace.bound():
                return self._serve_groups_inner(items), []
        return self._serve_groups_inner(items), []

    def _serve_groups_inner(
        self, items: List[Tuple[int, QueryRequest]]
    ) -> List[QueryResult]:
        with span("evaluate_groups", requests=len(items)):
            return [self._serve_group_one(index, req) for index, req in items]

    def _serve_group_one(
        self, index: int, request: QueryRequest
    ) -> QueryResult:
        """One group-by request through the router's cross-shard fan-out.

        The result's ``version`` is the per-member ``{name: version}``
        dict, so a caller can attribute every contribution to a
        consistent member snapshot.  Member request counters tick once
        per member, mirroring what N individual reads would record.
        """
        try:
            members = self.router.resolve_members(request.name)
            value, versions = self.router.query(
                request.kind, members, *request.args
            )
        except _REQUEST_ERRORS as exc:
            return QueryResult(
                index=index, name=request.name, kind=request.kind, error=str(exc)
            )
        for member in members:
            self.registry.counter(
                "frontend_entry_requests_total",
                "requests addressed to the entry",
                entry=member,
            ).inc()
        return QueryResult(
            index=index,
            name=request.name,
            kind=request.kind,
            value=value,
            version=versions,
        )

    # ------------------------------------------------------------------ #
    # Per-shard evaluation (runs on the thread pool)
    # ------------------------------------------------------------------ #

    def _serve_shard(
        self,
        shard: Shard,
        items: List[Tuple[int, QueryRequest]],
        groups: List[ColumnGroup],
        split: bool,
        trace: Optional[TraceContext] = None,
    ) -> Tuple[List[QueryResult], List[Tuple[ColumnGroup, Tuple[Any, Any]]]]:
        # Runs on a pool worker: thread pools do not inherit the event
        # loop task's contextvars, so the batch trace must be re-bound
        # here for the coalesce/evaluate spans (and any slow-log entry
        # recorded downstream) to land on the right request.
        if trace is not None:
            with trace.bound():
                return self._serve_shard_inner(shard, items, groups, split)
        return self._serve_shard_inner(shard, items, groups, split)

    def _serve_shard_inner(
        self,
        shard: Shard,
        items: List[Tuple[int, QueryRequest]],
        groups: List[ColumnGroup],
        split: bool,
    ) -> Tuple[List[QueryResult], List[Tuple[ColumnGroup, Tuple[Any, Any]]]]:
        started = time.perf_counter()
        histogram, counter = self._shard_instruments(shard.index)
        requests = len(items) + sum(len(group) for group in groups)
        counter.inc(requests)
        try:
            with span("coalesce", shard=shard.index):
                singles = items
                if self.coalesce:
                    built, singles = coalesce(items)
                    groups = groups + built
            merged = sum(len(group) for group in groups if len(group) > 1)
            if merged:
                self._c_coalesced.inc(merged)
            # Per-entry request volume, for the hotness tracker.  The
            # engine's per-entry cache series counts *table accesses* —
            # one per coalesced group — so under coalescing it
            # undercounts load by the batch size; this series counts
            # requests.  Looked up (not cached) so removal via
            # ``registry.drop(entry=...)`` stays effective across
            # re-registration.
            request_counts: Dict[str, int] = {}
            for group in groups:
                request_counts[group.name] = request_counts.get(
                    group.name, 0
                ) + len(group)
            for _index, request in singles:
                request_counts[request.name] = (
                    request_counts.get(request.name, 0) + 1
                )
            for entry_name, count in request_counts.items():
                self.registry.counter(
                    "frontend_entry_requests_total",
                    "requests addressed to the entry",
                    entry=entry_name,
                ).inc(count)
            answered: List[Tuple[ColumnGroup, Tuple[Any, Any]]] = []
            with span("evaluate", shard=shard.index, requests=requests):
                results: List[QueryResult] = []
                for group in groups:
                    # One engine call per group: all its answers share one
                    # table snapshot, hence one version (and one engine-side
                    # latency observation: the coalescing win shows up as
                    # fewer, slightly fatter samples).
                    name, kind = group.name, group.kind
                    try:
                        stacked, version = self._evaluate(
                            shard, kind, name, group.columns
                        )
                    except _REQUEST_ERRORS:
                        # One request holds an invalid argument: retry each
                        # individually so only the offender reports an error.
                        results.extend(
                            self._serve_one(shard, index, kind, name, args)
                            for index, args in group.requests()
                        )
                        continue
                    if split:
                        results.extend(
                            QueryResult(index, name, kind, value, version)
                            for index, value in zip(
                                group.index, group.values(stacked)
                            )
                        )
                    else:
                        answered.append((group, (stacked, version)))
                for index, request in singles:
                    results.append(
                        self._serve_one(
                            shard, index, request.kind, request.name, request.args
                        )
                    )
            return results, answered
        finally:
            histogram.observe(time.perf_counter() - started)

    def _evaluate(
        self,
        shard: Shard,
        kind: str,
        name: str,
        args: Sequence[Any],
        _hops: int = 0,
    ) -> Tuple[Any, Any]:
        """``(value, version)`` of one engine call routed to ``shard``.

        A miss caused by a live migration retries on the entry's current
        shard.  Any other failure raises.
        """
        try:
            if KINDS[kind].coalescible:
                return shard.engine.query(kind, name, *args)
            # A pair's partner may live on another shard, which the
            # router resolves.
            return self.router.query(kind, name, *args)
        except _REQUEST_ERRORS as exc:
            retry = self._migration_target(shard, name, exc)
            if retry is None or _hops >= 4:
                raise
            self._c_migrated_retries.inc()
            return self._evaluate(retry, kind, name, args, _hops + 1)

    def _serve_one(
        self,
        shard: Shard,
        index: int,
        kind: str,
        name: str,
        args: Sequence[Any],
    ) -> QueryResult:
        try:
            value, version = self._evaluate(shard, kind, name, args)
        except _REQUEST_ERRORS as exc:
            return QueryResult(index=index, name=name, kind=kind, error=str(exc))
        return QueryResult(
            index=index, name=name, kind=kind, value=value, version=version
        )

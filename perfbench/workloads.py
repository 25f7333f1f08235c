"""The four workloads of the synopsis-serving benchmark.

Each workload turns a seed into plain NumPy arrays (``__init__``, untimed),
brings the program up through its public API (``setup``, priced as
``setup_s``), builds brute-force reference answers and warms the caches
(``prepare``, untimed), and then runs closed-loop operations (``op``) from
one client thread.  Only the calls into the program are timed; turning the
generated arrays into ``QueryRequest`` objects happens inside the timed
region because every caller pays for it.  Each op records its wall time
and the CPU time the serving program spent on it (``program_cpu_seconds``).
``verify`` checks each op's answers outside the timed region and counts
mismatches.

Per-layer timings are taken from outside the program: around the public
calls, from the front end's ``last_trace`` spans, and from the existing
``MetricsRegistry`` series.  Work done only to price a layer (replaying a
batch on bare ``PrefixTable`` objects, encoding a message a second time)
runs after the op, outside its timed region, and only when ``traced``.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import BuildBudget, ResidencyManager
from repro.obs import get_default_registry
from repro.obs.jsonlog import SlowQueryLog
from repro.sampling.windowed import WindowedStreamLearner
from repro.serve import (
    AsyncServingFrontend,
    PrefixTable,
    QueryRequest,
    ShardRouter,
    build_synopsis,
    group_tables_range_mean,
    group_tables_range_sum,
    group_tables_top_k,
    stable_shard,
)
from repro.serve.workers import ProcessShardRouter, decode_message, encode_message

# Sizes per profile.  "full" is what the benchmark measures; "smoke" keeps
# the same shape at a size that runs in seconds (the benchmark's own test).
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "mixed": {"entries": 64, "n": 16_384, "k": 64, "shards": 4,
                  "batch": 3_000, "zipf_s": 1.1, "pool": 4},
        "cohort": {"members": 400, "n": 256, "shards": 4, "max_bytes": 400,
                   "budget_share": 0.25, "top_m": 8},
        "stream": {"entries": 2, "n": 1 << 18, "k": 32, "shards": 2,
                   "window": 400_000, "prefill": 450_000, "extend": 100_000,
                   "zipf_a": 1.3, "reads": 1_000, "phi": 0.05},
    },
    "smoke": {
        "mixed": {"entries": 8, "n": 1_024, "k": 16, "shards": 4,
                  "batch": 400, "zipf_s": 1.1, "pool": 2},
        "cohort": {"members": 60, "n": 64, "shards": 4, "max_bytes": 400,
                   "budget_share": 0.25, "top_m": 4},
        "stream": {"entries": 2, "n": 1 << 12, "k": 16, "shards": 2,
                   "window": 20_000, "prefill": 24_000, "extend": 5_000,
                   "zipf_a": 1.3, "reads": 100, "phi": 0.05},
    },
}

# The scalar kinds of mixed_batch and their shares of the request stream.
MIXED_KINDS = ("range_sum", "range_mean", "cdf", "quantile", "point_mass")
MIXED_SHARES = (0.40, 0.15, 0.15, 0.15, 0.15)
GROUP_KINDS = ("group_range_sum", "group_range_mean", "group_top_k")
STREAM_KINDS = ("range_sum", "cdf", "quantile")

# Relative tolerance between a served answer and the dense brute force.
# Both sum the same float64 values in different orders.
RTOL = 1e-9

# Far above any op, so the front end's slow-query log never writes to
# stderr inside a timed region.
QUIET_SLOW_LOG_S = 3600.0


def quiet_slow_log() -> SlowQueryLog:
    return SlowQueryLog(threshold_seconds=QUIET_SLOW_LOG_S)


# Registry series the benchmark reads: name -> (key, field).
_SERIES = {
    "frontend_requests_total": ("requests", "value"),
    "frontend_coalesced_requests_total": ("coalesced", "value"),
    "engine_cache_hits_total": ("hits", "value"),
    "engine_cache_misses_total": ("misses", "value"),
    "store_hydrate_seconds": ("hydrations", "count"),
}


def registry_counts(registry) -> Dict[str, float]:
    """Totals of the series above, summed over all label sets."""
    out = {key: 0.0 for key, _ in _SERIES.values()}
    for name, _labels, instrument in registry.collect():
        if name in _SERIES:
            key, field_name = _SERIES[name]
            out[key] += float(getattr(instrument, field_name))
    return out


def count_ratios(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """Coalesced share of requests and table-cache hit share between two reads."""
    d = {key: after[key] - before[key] for key in after}
    return {
        "frontend.coalesce_ratio": d["coalesced"] / max(d["requests"], 1.0),
        "engine.table_hit_ratio": d["hits"] / max(d["hits"] + d["misses"], 1.0),
    }


def span_ms(trace, names: Sequence[str]) -> Dict[str, float]:
    """Summed span milliseconds per name (per-shard spans add up)."""
    out = {name: 0.0 for name in names}
    if trace is None:
        return out
    for span in trace.spans():
        if span.name in out:
            out[span.name] += span.seconds * 1e3
    return out


def prefix_sums(dense: np.ndarray) -> np.ndarray:
    """``F`` with ``F[x] = sum_{i < x} f(i)``: the brute-force reference."""
    return np.concatenate(([0.0], np.cumsum(dense, dtype=np.float64)))


def check_scalar_answers(
    kinds: np.ndarray,
    F: np.ndarray,
    entry: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    q: np.ndarray,
    values: np.ndarray,
    kind_names: Sequence[str],
) -> np.ndarray:
    """Boolean mask of answers that disagree with the dense reference.

    ``F`` holds one prefix-sum row per entry and ``entry`` each request's
    row.  ``a``/``b`` are range ends (``a`` doubles as the position of cdf
    and point_mass), ``q`` the quantile level.
    """
    rows = entry
    total = F[entry, -1]
    tol = RTOL * np.maximum(np.abs(F).max(axis=1), 1.0)[entry]
    bad = ~np.isfinite(values)
    for code, kind in enumerate(kind_names):
        m = (kinds == code) & ~bad
        if not m.any():
            continue
        r, aa, bb, v = rows[m], a[m], b[m], values[m]
        if kind in ("range_sum", "range_mean"):
            want = F[r, bb + 1] - F[r, aa]
            if kind == "range_mean":
                want = want / (bb - aa + 1)
                err = np.abs(v - want) > tol[m] / (bb - aa + 1)
            else:
                err = np.abs(v - want) > tol[m]
        elif kind == "point_mass":
            err = np.abs(v - (F[r, aa + 1] - F[r, aa])) > tol[m]
        elif kind == "cdf":
            err = np.abs(v - F[r, aa + 1] / total[m]) > RTOL * 10
        elif kind == "quantile":
            # First-crossing contract: F[x+1] >= q*total, and no earlier x.
            x = v.astype(np.int64)
            target = q[m] * total[m]
            inside = (x >= 0) & (x < F.shape[1] - 1) & (x == v)
            xs = np.clip(x, 0, F.shape[1] - 2)
            reached = F[r, xs + 1] >= target - tol[m]
            not_before = (xs == 0) | (F[r, xs] < target + tol[m])
            err = ~(inside & reached & not_before)
        else:
            raise ValueError(kind)
        bad[m] = err
    return bad


def touch_files(directory: Path) -> None:
    """Read every file under ``directory`` once, so the page cache holds it."""
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            path.read_bytes()


def l2_share(dense: np.ndarray, target: np.ndarray) -> float:
    """l2 distance between a reconstruction and its target, both divided
    by the target's total mass (so both read as distributions)."""
    mass = float(target.sum())
    return float(np.linalg.norm((dense - target) / mass))


@dataclass
class OpRecord:
    """What one op cost and what it returned (answers checked later)."""

    seconds: float
    cpu_seconds: float
    probe_ms: float = 0.0  # core probe around the op (set by the runner)
    requests: int = 0
    samples: int = 0
    write_seconds: float = 0.0
    layers: Dict[str, float] = field(default_factory=dict)
    payload: Any = None


def program_cpu_seconds(worker_pids: Sequence[int]) -> float:
    """CPU time the serving program has used so far: every thread of this
    process plus every thread of its worker processes.

    A worker's figure is read from Linux's process-wide CPU clock for its
    pid (``CPUCLOCK_SCHED``, made as ``(~pid << 3) | 2``), which counts
    nanoseconds of run time, like ``time.process_time`` does here.
    """
    total = time.process_time()
    for pid in worker_pids:
        total += time.clock_gettime((~pid << 3) | 2)
    return total


class Workload:
    """Interface the runner drives; see the module docstring."""

    name = ""
    family = ""  # which SIZES block the workload reads

    def __init__(self, seed: int, profile: str, nproc: int, workdir: Path) -> None:
        self.seed = int(seed)
        self.sizes = SIZES[profile][self.family]
        self.nproc = int(nproc)
        self.workdir = Path(workdir)
        self.pool_workers = min(4, self.nproc)
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        # One dict of timed set-up parts per set-up, filled by the runner.
        self.setup_runs: List[Dict[str, float]] = []
        # Live worker processes of the program; their CPU time is the
        # program's too.
        self.worker_pids: List[int] = []

    def clock(self) -> Tuple[float, float]:
        """Wall time and the program's CPU time, both in seconds."""
        return time.perf_counter(), program_cpu_seconds(self.worker_pids)

    def setup(self) -> Dict[str, float]:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed: references and warm-up after the last setup."""

    def op(self, index: int, traced: bool) -> OpRecord:
        raise NotImplementedError

    def verify(self, record: OpRecord) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Guards checked once after the measured ops."""

    def quality(self) -> float:
        raise NotImplementedError

    def layer_metrics(self, records: Sequence[OpRecord]) -> Dict[str, float]:
        raise NotImplementedError

    def describe(self) -> Dict[str, Any]:
        return dict(self.sizes)

    def setup_part(self, key: str) -> float:
        """Median over the set-ups of one timed part."""
        return float(np.median([run[key] for run in self.setup_runs]))

    def setup_rate(self, points: int, key: str) -> float:
        """Points per second over every set-up's ``key`` part together."""
        return points * len(self.setup_runs) / sum(run[key] for run in self.setup_runs)

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += int(count)
            if len(self.problems) < 20:
                self.problems.append(why)


def median_of(records: Sequence[OpRecord], key: str) -> float:
    values = [r.layers[key] for r in records if key in r.layers]
    return float(np.median(values)) if values else 0.0


# --------------------------------------------------------------------- #
# mixed_batch / mixed_batch_process
# --------------------------------------------------------------------- #


def make_series(rng: np.random.Generator, count: int, n: int) -> List[np.ndarray]:
    """Positive step-plus-noise series: structure the merging build can find."""
    out = []
    for _ in range(count):
        steps = int(rng.integers(16, 96))
        cuts = np.sort(rng.choice(np.arange(1, n), size=steps - 1, replace=False))
        levels = rng.gamma(2.0, 1.0, size=steps)
        base = np.repeat(levels, np.diff(np.concatenate(([0], cuts, [n]))))
        out.append(base * rng.uniform(0.9, 1.1, size=n) + 0.01)
    return out


@dataclass
class MixedBatchInputs:
    kind: np.ndarray
    entry: np.ndarray
    a: np.ndarray
    b: np.ndarray
    q: np.ndarray


def make_mixed_batch(
    rng: np.random.Generator, size: int, entries: int, n: int, zipf_s: float
) -> MixedBatchInputs:
    # Zipf rank r addresses entry r for every seed: the hot entries, and so
    # the load each shard and worker carries, stay the same across seeds.
    # Seeds vary the series and the requests drawn, not the placement luck.
    weights = 1.0 / np.arange(1, entries + 1) ** zipf_s
    entry = rng.choice(entries, size=size, p=weights / weights.sum())
    kind = rng.choice(len(MIXED_KINDS), size=size, p=MIXED_SHARES)
    lo = rng.integers(0, n, size=size)
    hi = rng.integers(0, n, size=size)
    return MixedBatchInputs(
        kind=kind.astype(np.int64),
        entry=entry,
        a=np.minimum(lo, hi),
        b=np.maximum(lo, hi),
        q=rng.random(size),
    )


def build_requests(
    batch: MixedBatchInputs, names: Sequence[str], kind_names: Sequence[str]
) -> List[QueryRequest]:
    """Plain arrays -> QueryRequests, as a caller holding arrays would."""
    two_arg = {i for i, kind in enumerate(kind_names) if kind in ("range_sum", "range_mean")}
    quantile = {i for i, kind in enumerate(kind_names) if kind == "quantile"}
    requests = []
    for k, e, a, b, q in zip(
        batch.kind.tolist(), batch.entry.tolist(), batch.a.tolist(),
        batch.b.tolist(), batch.q.tolist(),
    ):
        if k in two_arg:
            args = (a, b)
        elif k in quantile:
            args = (q,)
        else:
            args = (a,)
        requests.append(QueryRequest(kind_names[k], names[e], args))
    return requests


def answer_arrays(results) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values, ok, versions) of scalar results, in request order."""
    values = np.array(
        [r.value if r.error is None else np.nan for r in results], dtype=np.float64
    )
    ok = np.array([r.error is None for r in results], dtype=bool)
    versions = np.array(
        [r.version if isinstance(r.version, int) else -1 for r in results],
        dtype=np.int64,
    )
    return values, ok, versions


def kernel_replay_ms(
    batch: MixedBatchInputs, tables: Sequence[PrefixTable], kind_names: Sequence[str]
) -> float:
    """The batch on bare prefix tables: one stacked call per entry x kind.

    This is the NumPy kernel work the serving stack cannot avoid; the
    front end's time above it is its own overhead.
    """
    order = np.lexsort((batch.kind, batch.entry))
    entry, kind = batch.entry[order], batch.kind[order]
    a, b, q = batch.a[order], batch.b[order], batch.q[order]
    edges = np.flatnonzero(np.diff(entry * len(kind_names) + kind)) + 1
    starts = np.concatenate(([0], edges))
    stops = np.concatenate((edges, [len(entry)]))
    total = 0.0
    for s, t in zip(starts.tolist(), stops.tolist()):
        table = tables[int(entry[s])]
        name = kind_names[int(kind[s])]
        start = time.perf_counter()
        if name in ("range_sum", "range_mean"):
            getattr(table, name)(a[s:t], b[s:t])
        elif name == "quantile":
            table.quantile(q[s:t])
        else:
            getattr(table, name)(a[s:t])
        total += time.perf_counter() - start
    return total * 1e3


class MixedBatch(Workload):
    """64 merging entries (k=64) on a 4-shard router with warm tables, served
    by the thread-pool front end; one op is one batch of 3,000 scalar
    requests whose entry names follow Zipf(1.1)."""

    name = "mixed_batch"
    family = "mixed"

    def __init__(self, seed, profile, nproc, workdir) -> None:
        super().__init__(seed, profile, nproc, workdir)
        s = self.sizes
        rng = np.random.default_rng([self.seed, 1])
        self.names = [f"series-{i:03d}" for i in range(s["entries"])]
        self.series = make_series(rng, s["entries"], s["n"])
        self.batches = [
            make_mixed_batch(rng, s["batch"], s["entries"], s["n"], s["zipf_s"])
            for _ in range(s["pool"])
        ]
        self.router: Optional[ShardRouter] = None
        self.frontend: Optional[AsyncServingFrontend] = None

    # -- setup ---------------------------------------------------------- #

    def _build_router(self) -> Tuple[ShardRouter, float]:
        s = self.sizes
        start = time.perf_counter()
        router = ShardRouter(num_shards=s["shards"])
        for name, data in zip(self.names, self.series):
            router.register(name, data, family="merging", k=s["k"])
        return router, time.perf_counter() - start

    def setup(self) -> Dict[str, float]:
        router, build_s = self._build_router()
        frontend = AsyncServingFrontend(
            router, max_workers=self.pool_workers, slow_query_log=quiet_slow_log()
        )
        start = time.perf_counter()
        router.warm()
        self.router, self.frontend = router, frontend
        return {"build_s": build_s, "warm_s": time.perf_counter() - start}

    def teardown(self) -> None:
        if self.frontend is not None:
            self.frontend.close()
        self.router = self.frontend = None

    def _reference(self, router: ShardRouter) -> None:
        """Dense prefix sums of every served synopsis, plus bare tables."""
        self.F = np.stack(
            [prefix_sums(router[name].synopsis.to_dense()) for name in self.names]
        )
        self.versions = np.array([router[name].version for name in self.names])
        self.tables = [router.table_versioned(name)[1] for name in self.names]
        self._l2 = float(np.mean([
            l2_share(router[name].synopsis.to_dense(), data)
            for name, data in zip(self.names, self.series)
        ]))

    def prepare(self) -> None:
        self._reference(self.router)
        self._counts = registry_counts(self.router.registry)

    # -- ops ------------------------------------------------------------ #

    def _serve(self, requests):
        return self.frontend.serve(requests)

    def op(self, index: int, traced: bool) -> OpRecord:
        batch = self.batches[index % len(self.batches)]
        start, cpu0 = self.clock()
        requests = build_requests(batch, self.names, MIXED_KINDS)
        built = time.perf_counter()
        results = self._serve(requests)
        done, cpu1 = self.clock()
        record = OpRecord(seconds=done - start, cpu_seconds=cpu1 - cpu0,
                          requests=len(requests), payload=(batch, results, index))
        if traced:
            record.layers.update(self._trace_layers(batch, requests, results))
            record.layers["frontend.request_build_ms"] = (built - start) * 1e3
            record.layers["serve_ms"] = (done - built) * 1e3
        return record

    def _trace_layers(self, batch, requests, results) -> Dict[str, float]:
        layers = span_ms(self.frontend.last_trace,
                         ("route", "coalesce", "evaluate", "reassemble"))
        out = {f"frontend.{k}_ms": v for k, v in layers.items()}
        out["engine.kernel_ms"] = kernel_replay_ms(batch, self.tables, MIXED_KINDS)
        start = time.perf_counter()
        for e in np.unique(batch.entry).tolist():
            self.router.table_versioned(self.names[e])
        out["engine.table_fetch_ms"] = (time.perf_counter() - start) * 1e3
        out["resident_bytes"] = float(self.router.residency()["resident_bytes"])
        return out

    def verify(self, record: OpRecord) -> None:
        batch, results, _ = record.payload
        record.payload = None
        self.attempted += len(batch.kind)
        if len(results) != len(batch.kind):
            self.fail(len(batch.kind), f"{len(results)} answers for {len(batch.kind)} requests")
            return
        values, ok, versions = answer_arrays(results)
        bad = ~ok | (versions != self.versions[batch.entry])
        bad |= check_scalar_answers(
            batch.kind, self.F, batch.entry, batch.a, batch.b, batch.q, values, MIXED_KINDS
        )
        self.fail(int(bad.sum()), f"{int(bad.sum())} wrong answers in one batch")

    # -- metrics -------------------------------------------------------- #

    def quality(self) -> float:
        return self._l2

    def build_points_per_s(self) -> float:
        return self.setup_rate(sum(len(data) for data in self.series), "build_s")

    def layer_metrics(self, records) -> Dict[str, float]:
        now = registry_counts(self.router.registry)
        serve = median_of(records, "serve_ms")
        kernel = median_of(records, "engine.kernel_ms")
        out = {
            "frontend.request_build_ms": median_of(records, "frontend.request_build_ms"),
            "frontend.serve_ms": serve,
            "frontend.route_ms": median_of(records, "frontend.route_ms"),
            "frontend.coalesce_ms": median_of(records, "frontend.coalesce_ms"),
            "frontend.evaluate_ms": median_of(records, "frontend.evaluate_ms"),
            "frontend.reassemble_ms": median_of(records, "frontend.reassemble_ms"),
            "frontend.overhead_ratio": (serve - kernel) / kernel if kernel else 0.0,
            "engine.kernel_ms": kernel,
            "engine.table_fetch_ms": median_of(records, "engine.table_fetch_ms"),
            "engine.table_builds": now["misses"] - self._counts["misses"],
            "store.resident_bytes_peak": max(
                (r.layers.get("resident_bytes", 0.0) for r in records), default=0.0
            ),
            "builders.merge_build_ms": self.setup_part("build_s") * 1e3 / len(self.names),
            "builders.merge_points_per_s": self.build_points_per_s(),
        }
        out.update(count_ratios(self._counts, now))
        return out


class MixedBatchProcess(MixedBatch):
    """The mixed_batch entries and batches, saved as a 4-shard mmap store and
    served by ``ProcessShardRouter``; answers must equal the thread front
    end's bit for bit."""

    name = "mixed_batch_process"

    def __init__(self, seed, profile, nproc, workdir) -> None:
        super().__init__(seed, profile, nproc, workdir)
        self.proc: Optional[ProcessShardRouter] = None
        self._store_dir = self.workdir / "mixed_store"

    def setup(self) -> Dict[str, float]:
        router, build_s = self._build_router()
        start = time.perf_counter()
        router.save(self._store_dir)
        saved = time.perf_counter()
        proc = ProcessShardRouter(self._store_dir, workers=self.pool_workers)
        spawned = time.perf_counter()
        proc.warm()
        self.worker_pids = proc.ping()
        warmed = time.perf_counter()
        self.router, self.proc = router, proc
        return {"build_s": build_s, "save_s": saved - start,
                "spawn_s": spawned - saved, "warm_s": warmed - spawned}

    def teardown(self) -> None:
        if self.proc is not None:
            self.proc.close()
        self.proc = self.router = None
        self.worker_pids = []
        shutil.rmtree(self._store_dir, ignore_errors=True)

    def prepare(self) -> None:
        self._reference(self.router)
        # The thread-pool front end's answers for the same batches: the
        # process tier must return them bit for bit.
        with AsyncServingFrontend(
            self.router, max_workers=self.pool_workers, slow_query_log=quiet_slow_log()
        ) as frontend:
            self.thread_answers = [
                answer_arrays(frontend.serve(build_requests(b, self.names, MIXED_KINDS)))[0]
                for b in self.batches
            ]
        start = time.perf_counter()
        ShardRouter.load(self._store_dir)
        self.load_s = time.perf_counter() - start
        touch_files(self._store_dir)
        self.restarts0 = self.proc.restarts_total
        # The in-process router only served the references; holding it
        # would count in peak_rss_mb.
        self.router = None

    def _serve(self, requests):
        return self.proc.serve(requests)

    def _trace_layers(self, batch, requests, results) -> Dict[str, float]:
        # The parent-side wire work of this batch, priced again outside the
        # op: encode the requests, decode the replies.
        message = {
            "cmd": "query",
            "requests": [
                {"kind": r.kind, "name": r.name, "args": r.args} for r in requests
            ],
        }
        start = time.perf_counter()
        sent = encode_message(message)
        encode_s = time.perf_counter() - start
        reply = encode_message({
            "ok": True,
            "results": [
                {"index": r.index, "name": r.name, "kind": r.kind, "value": r.value,
                 "version": r.version, "error": r.error}
                for r in results
            ],
        })
        start = time.perf_counter()
        decode_message(reply)
        decode_s = time.perf_counter() - start
        return {
            "workers.encode_ms": encode_s * 1e3,
            "workers.decode_ms": decode_s * 1e3,
            "workers.wire_bytes": float(len(sent) + len(reply)),
            "engine.kernel_ms": kernel_replay_ms(batch, self.tables, MIXED_KINDS),
        }

    def verify(self, record: OpRecord) -> None:
        batch, results, index = record.payload
        super().verify(record)
        got = answer_arrays(results)[0].view(np.int64)
        want = self.thread_answers[index % len(self.batches)].view(np.int64)
        differ = len(got) if got.shape != want.shape else int((got != want).sum())
        self.fail(differ, f"{differ} answers differ from the thread front end bit for bit")

    def layer_metrics(self, records) -> Dict[str, float]:
        serve = median_of(records, "serve_ms")
        encode = median_of(records, "workers.encode_ms")
        decode = median_of(records, "workers.decode_ms")
        return {
            "frontend.request_build_ms": median_of(records, "frontend.request_build_ms"),
            "engine.kernel_ms": median_of(records, "engine.kernel_ms"),
            "workers.serve_ms": serve,
            "workers.encode_ms": encode,
            "workers.decode_ms": decode,
            "workers.wire_bytes": median_of(records, "workers.wire_bytes"),
            "workers.remote_ms": serve - encode - decode,
            "workers.restarts": float(self.proc.restarts_total - self.restarts0),
            "persistence.save_s": self.setup_part("save_s"),
            "persistence.load_s": self.load_s,
            "builders.merge_build_ms": self.setup_part("build_s") * 1e3 / len(self.names),
            "builders.merge_points_per_s": self.build_points_per_s(),
        }


# --------------------------------------------------------------------- #
# cohort_cold
# --------------------------------------------------------------------- #


class CohortCold(Workload):
    """A 400-member cohort registered with ``register_many``, saved and
    reloaded lazily under a residency budget of a quarter of its hydrated
    bytes; one op is one group request over the whole cohort."""

    name = "cohort_cold"
    family = "cohort"
    COHORT = "fleet"

    def __init__(self, seed, profile, nproc, workdir) -> None:
        super().__init__(seed, profile, nproc, workdir)
        s = self.sizes
        rng = np.random.default_rng([self.seed, 2])
        base = np.abs(rng.normal(2.0, 0.4, s["n"])) + 0.01
        self.names = [f"member-{i:05d}" for i in range(s["members"])]
        self.series = [
            base * rng.uniform(0.8, 1.25) + rng.uniform(0.0, 0.05, s["n"])
            for _ in self.names
        ]
        lo = rng.integers(0, s["n"], size=257)
        hi = rng.integers(0, s["n"], size=257)
        self.ranges = np.stack([np.minimum(lo, hi), np.maximum(lo, hi)], axis=1)
        self._store_dir = self.workdir / "cohort_store"
        self.built = self.router = self.frontend = self.manager = None

    def setup(self) -> Dict[str, float]:
        s = self.sizes
        registry = get_default_registry()
        probed0 = registry.counter("plans_probed_total").value
        reused0 = registry.counter("plans_reused_total").value
        start = time.perf_counter()
        built = ShardRouter(num_shards=s["shards"])
        built.register_many(
            list(zip(self.names, self.series)),
            BuildBudget(max_bytes=s["max_bytes"]),
            cohort=self.COHORT,
        )
        registered = time.perf_counter()
        built.save(self._store_dir)
        saved = time.perf_counter()
        router = ShardRouter.load(self._store_dir)
        loaded = time.perf_counter()
        hydrated_bytes = sum(
            built[name].result.stored_numbers * 8 for name in self.names
        )
        self.budget = max(1, int(hydrated_bytes * s["budget_share"]))
        manager = ResidencyManager(self.budget)
        for shard in router.shards:
            manager.watch(shard.store)
        frontend = AsyncServingFrontend(
            router, max_workers=self.pool_workers, slow_query_log=quiet_slow_log()
        )
        self.plans = (
            registry.counter("plans_probed_total").value - probed0,
            registry.counter("plans_reused_total").value - reused0,
        )
        self.hydrated_bytes = hydrated_bytes
        self.built, self.router, self.manager, self.frontend = built, router, manager, frontend
        return {"register_many_s": registered - start, "save_s": saved - registered,
                "load_s": loaded - saved}

    def teardown(self) -> None:
        if self.frontend is not None:
            self.frontend.close()
        self.built = self.router = self.frontend = self.manager = None
        shutil.rmtree(self._store_dir, ignore_errors=True)

    def prepare(self) -> None:
        syns = [self.built[name].synopsis for name in self.names]
        self.F = np.stack([prefix_sums(syn.to_dense()) for syn in syns])
        self.ref_tables = [PrefixTable.from_synopsis(syn) for syn in syns]
        self._l2 = float(np.mean([
            l2_share(syn.to_dense(), data) for syn, data in zip(syns, self.series)
        ]))
        self.versions = {name: self.built[name].version for name in self.names}
        self.built = None
        touch_files(self._store_dir)
        self._counts = registry_counts(self.router.registry)

    def _args(self, index: int) -> Tuple[str, tuple]:
        kind = GROUP_KINDS[index % len(GROUP_KINDS)]
        a, b = self.ranges[index % len(self.ranges)].tolist()
        return kind, ((self.sizes["top_m"],) if kind == "group_top_k" else (a, b))

    def op(self, index: int, traced: bool) -> OpRecord:
        kind, args = self._args(index)
        before = registry_counts(self.router.registry) if traced else None
        evictions = self.manager.evictions
        start, cpu0 = self.clock()
        results = self.frontend.serve([QueryRequest(kind, self.COHORT, args)])
        done, cpu1 = self.clock()
        record = OpRecord(seconds=done - start, cpu_seconds=cpu1 - cpu0, requests=1,
                          payload=(kind, args, results))
        if traced:
            after = registry_counts(self.router.registry)
            spans = span_ms(self.frontend.last_trace, ("evaluate_groups",))
            start = time.perf_counter()
            self.router.resolve_members(self.COHORT)
            resolve_ms = (time.perf_counter() - start) * 1e3
            start = time.perf_counter()
            if kind == "group_top_k":
                group_tables_top_k(self.ref_tables, args[0])
            elif kind == "group_range_sum":
                group_tables_range_sum(self.ref_tables, *args)
            else:
                group_tables_range_mean(self.ref_tables, *args)
            kernel_ms = (time.perf_counter() - start) * 1e3
            group_ms = spans["evaluate_groups"]
            record.layers.update({
                "serve_ms": record.seconds * 1e3,
                "router.group_ms": group_ms,
                "router.resolve_ms": resolve_ms,
                "engine.group_kernel_ms": kernel_ms,
                "engine.table_fetch_ms": max(group_ms - kernel_ms - resolve_ms, 0.0),
                "store.hydrations": after["hydrations"] - before["hydrations"],
                "store.evictions": float(self.manager.evictions - evictions),
                "engine.table_builds": after["misses"] - before["misses"],
                "resident_bytes": float(self.manager.resident_bytes()),
            })
        return record

    def verify(self, record: OpRecord) -> None:
        kind, args, results = record.payload
        record.payload = None
        self.attempted += 1
        if len(results) != 1 or results[0].error is not None:
            self.fail(1, f"group request failed: {results[0].error if results else 'none'}")
            return
        result = results[0]
        if result.version != self.versions:
            self.fail(1, "group answer carries wrong member versions")
            return
        F = self.F
        tol = RTOL * float(np.abs(F).max()) * len(self.names)
        if kind == "group_top_k":
            rows = result.value
            masses = np.array([m for _, _, m in rows])
            want = np.array([F[:, r + 1].sum() - F[:, l].sum() for l, r, _ in rows])
            ok = (
                len(rows) == args[0]
                and np.all(np.abs(masses - want) <= tol)
                and np.all(np.diff(masses) <= tol)
            )
        else:
            a, b = args
            want = float((F[:, b + 1] - F[:, a]).sum())
            # Member by member, in member order, on the members' own tables:
            # the group answer must be exactly this sum.
            exact = 0.0
            for table in self.ref_tables:
                exact = exact + table.range_sum(a, b)
            if kind == "group_range_mean":
                want /= b - a + 1
                exact /= b - a + 1
                tol /= b - a + 1
            ok = abs(result.value - want) <= tol and result.value == exact
        if not ok:
            self.fail(1, f"{kind}{args} disagrees with the member-wise sum")

    def quality(self) -> float:
        return self._l2

    def layer_metrics(self, records) -> Dict[str, float]:
        out = {
            "frontend.serve_ms": median_of(records, "serve_ms"),
            "router.group_ms": median_of(records, "router.group_ms"),
            "router.resolve_ms": median_of(records, "router.resolve_ms"),
            "engine.group_kernel_ms": median_of(records, "engine.group_kernel_ms"),
            "engine.table_fetch_ms": median_of(records, "engine.table_fetch_ms"),
            "engine.table_builds": median_of(records, "engine.table_builds"),
            "store.hydrations": median_of(records, "store.hydrations"),
            "store.evictions": median_of(records, "store.evictions"),
            "store.resident_bytes_peak": max(
                (r.layers.get("resident_bytes", 0.0) for r in records), default=0.0
            ),
            "persistence.save_s": self.setup_part("save_s"),
            "persistence.load_s": self.setup_part("load_s"),
            "planner.register_many_s": self.setup_part("register_many_s"),
            "planner.plans_probed": float(self.plans[0]),
            "planner.plans_reused": float(self.plans[1]),
        }
        out["engine.table_hit_ratio"] = count_ratios(
            self._counts, registry_counts(self.router.registry)
        )["engine.table_hit_ratio"]
        return out

    def describe(self) -> Dict[str, Any]:
        out = dict(self.sizes)
        out["hydrated_bytes"] = int(self.hydrated_bytes)
        out["resident_budget_bytes"] = int(self.budget)
        return out


# --------------------------------------------------------------------- #
# stream_refresh
# --------------------------------------------------------------------- #


def distinct_shard_names(count: int, shards: int) -> List[str]:
    """``count`` entry names the router's hash places on distinct shards."""
    names: Dict[int, str] = {}
    i = 0
    while len(names) < count:
        name = f"stream-{i}"
        names.setdefault(stable_shard(name, shards), name)
        i += 1
    return [names[s] for s in sorted(names)][:count]


class StreamRefresh(Workload):
    """Two windowed streaming entries on 2 shards; one op extends one of them
    (in turn) with 100k Zipf(1.3) samples, refreshes it, then serves a
    1,000-request read batch (with one heavy-hitters request per entry)
    that must see the new version."""

    name = "stream_refresh"
    family = "stream"
    # Refresh only when asked: extend() must not rebuild on its own, so
    # each op runs exactly one merging build.
    NO_AUTO_REFRESH_EPOCHS = 1 << 40
    L2_OPS = 6
    SUPPORT_DRIFT = 0.10
    # A refreshed merging histogram is the flattening of the window's
    # empirical distribution over its own pieces: each piece's mass equals
    # the window's share of samples in it, up to rounding.
    MASS_TOL = 1e-9

    def __init__(self, seed, profile, nproc, workdir) -> None:
        super().__init__(seed, profile, nproc, workdir)
        s = self.sizes
        self.names = distinct_shard_names(s["entries"], s["shards"])
        self.perm = np.random.default_rng([self.seed, 3]).permutation(s["n"])
        prefill_rng = np.random.default_rng([self.seed, 4])
        self.prefill = [self._zipf(prefill_rng, s["prefill"]) for _ in self.names]
        self.rng = np.random.default_rng([self.seed, 5])
        self.router = self.frontend = None
        self.l2_values: List[float] = []
        self.supports: List[float] = []

    def _zipf(self, rng: np.random.Generator, count: int) -> np.ndarray:
        s = self.sizes
        return self.perm[(rng.zipf(s["zipf_a"], count) - 1) % s["n"]]

    def setup(self) -> Dict[str, float]:
        s = self.sizes
        start = time.perf_counter()
        router = ShardRouter(num_shards=s["shards"])
        for name, samples in zip(self.names, self.prefill):
            learner = WindowedStreamLearner(
                s["n"], s["k"], s["window"], refresh_epochs=self.NO_AUTO_REFRESH_EPOCHS
            )
            learner.extend(samples)
            router.register_stream(name, learner, family="merging", k=s["k"])
        frontend = AsyncServingFrontend(
            router, max_workers=self.pool_workers, slow_query_log=quiet_slow_log()
        )
        router.warm()
        self.router, self.frontend = router, frontend
        return {"build_s": time.perf_counter() - start}

    def teardown(self) -> None:
        if self.frontend is not None:
            self.frontend.close()
        self.router = self.frontend = None

    def prepare(self) -> None:
        # The exact stream each entry has seen, newest last (trimmed to what
        # the window can still hold), its exact window counts, and the
        # reference for the entry as served now.
        self.history = [[p] for p in self.prefill]
        self.counts = [
            self._window_counts(j, self.router[name].learner.window_total)
            for j, name in enumerate(self.names)
        ]
        self.versions = [self.router[name].version for name in self.names]
        self.F_rows = [
            prefix_sums(self.router[name].synopsis.to_dense()) for name in self.names
        ]
        self._counts = registry_counts(self.router.registry)

    def _read_inputs(self) -> MixedBatchInputs:
        s = self.sizes
        per_entry = s["reads"] // len(self.names) - 1
        size = per_entry * len(self.names)
        lo = self.rng.integers(0, s["n"], size=size)
        hi = self.rng.integers(0, s["n"], size=size)
        return MixedBatchInputs(
            kind=self.rng.integers(0, len(STREAM_KINDS), size=size),
            entry=np.repeat(np.arange(len(self.names)), per_entry),
            a=np.minimum(lo, hi), b=np.maximum(lo, hi), q=self.rng.random(size),
        )

    def op(self, index: int, traced: bool) -> OpRecord:
        s = self.sizes
        j = index % len(self.names)
        name = self.names[j]
        fresh = self._zipf(self.rng, s["extend"])
        reads = self._read_inputs()
        layers: Dict[str, float] = {}
        misses = registry_counts(self.router.registry)["misses"] if traced else 0.0
        before = self.router[name].version
        start, cpu0 = self.clock()
        self.router.extend(name, fresh)
        extended = time.perf_counter()
        entry = self.router.refresh(name)
        refreshed = time.perf_counter()
        if traced:
            # The table rebuild the read batch would pay, moved just ahead
            # of it so it can be timed on its own; the op's work is unchanged.
            self.router.table_versioned(name)
            layers["engine.table_fetch_ms"] = (time.perf_counter() - refreshed) * 1e3
        built_at = time.perf_counter()
        requests = build_requests(reads, self.names, STREAM_KINDS)
        requests += [QueryRequest("heavy_hitters", n, (s["phi"],)) for n in self.names]
        served_at = time.perf_counter()
        results = self.frontend.serve(requests)
        done, cpu1 = self.clock()
        record = OpRecord(
            seconds=done - start,
            cpu_seconds=cpu1 - cpu0,
            requests=len(requests),
            samples=len(fresh),
            write_seconds=refreshed - start,
            layers=layers,
            payload=(j, fresh, before, entry.version, entry.synopsis, reads, results),
        )
        if traced:
            layers.update({
                "store.extend_ms": (extended - start) * 1e3,
                "store.refresh_ms": (refreshed - extended) * 1e3,
                "frontend.request_build_ms": (served_at - built_at) * 1e3,
                "serve_ms": (done - served_at) * 1e3,
                "engine.table_builds": registry_counts(self.router.registry)["misses"] - misses,
            })
            layers.update(self._trace_layers(name, reads))
        return record

    def _trace_layers(self, name, reads) -> Dict[str, float]:
        out = {
            f"frontend.{k}_ms": v
            for k, v in span_ms(
                self.frontend.last_trace, ("route", "coalesce", "evaluate", "reassemble")
            ).items()
        }
        tables = [self.router.table_versioned(n)[1] for n in self.names]
        out["engine.kernel_ms"] = kernel_replay_ms(reads, tables, STREAM_KINDS)
        empirical = self.router[name].learner.empirical()
        start = time.perf_counter()
        build_synopsis(empirical, "merging", self.sizes["k"])
        build_ms = (time.perf_counter() - start) * 1e3
        out["builders.merge_build_ms"] = build_ms
        out["builders.merge_points_per_s"] = len(empirical.indices) / (build_ms / 1e3)
        return out

    def _window_counts(self, j: int, window_total: int) -> np.ndarray:
        history = self.history[j]
        kept, total = [], 0
        for chunk in reversed(history):
            kept.append(chunk)
            total += len(chunk)
            if total >= window_total:
                break
        self.history[j] = kept[::-1]
        recent = np.concatenate(self.history[j])[-window_total:]
        return np.bincount(recent, minlength=self.sizes["n"]).astype(np.float64)

    def verify(self, record: OpRecord) -> None:
        j, fresh, before, version, synopsis, reads, results = record.payload
        record.payload = None
        self.attempted += len(results) + 2  # reads + the extend and refresh
        name = self.names[j]
        learner = self.router[name].learner
        self.history[j].append(fresh)
        counts = self.counts[j] = self._window_counts(j, learner.window_total)
        # The refresh must publish a newer version, rebuilt from the window
        # as it stands after this op's samples.
        if version <= before:
            self.fail(1, f"refresh of {name} kept version {before}")
        self.versions[j] = version
        dense = synopsis.to_dense()
        self.F_rows[j] = prefix_sums(dense)
        try:
            masses = synopsis.piece_masses()
            want = np.add.reduceat(counts, synopsis.partition.lefts) / counts.sum()
            stale = masses.shape != want.shape or np.abs(masses - want).max() > self.MASS_TOL
        except AttributeError:
            stale = True
        if stale:
            self.fail(1, f"refreshed {name} does not summarize its live window")
        if len(self.l2_values) < self.L2_OPS:
            self.l2_values.append(l2_share(dense, counts / counts.sum()))
        self.supports.append(float(learner.support_size))
        if len(results) != len(reads.kind) + len(self.names):
            self.fail(len(results), "read batch lost answers")
            return
        for i, other in enumerate(self.names):
            self._check_heavy(results[len(reads.kind) + i], self.counts[i],
                              self.router[other].learner)
        values, ok, got_versions = answer_arrays(results[: len(reads.kind)])
        bad = ~ok | (got_versions != np.array(self.versions)[reads.entry])
        bad |= check_scalar_answers(
            reads.kind, np.stack(self.F_rows), reads.entry, reads.a, reads.b, reads.q,
            values, STREAM_KINDS,
        )
        self.fail(int(bad.sum()), f"{int(bad.sum())} wrong or stale reads after refresh")

    def _check_heavy(self, result, counts: np.ndarray, learner) -> None:
        phi = self.sizes["phi"]
        if result.error is not None:
            self.fail(1, f"heavy_hitters failed: {result.error}")
            return
        W = counts.sum()
        reported = {int(p): int(c) for p, c in result.value}
        must = set(np.flatnonzero(counts >= phi * W).tolist())
        too_light = [p for p in reported if counts[p] < (phi - learner.sketch_eps) * W]
        over = [p for p, c in reported.items() if c > counts[p]]
        if not must.issubset(reported) or too_light or over:
            self.fail(1, "heavy_hitters answer breaks the (phi - eps) guarantee")

    def finish(self) -> None:
        # Window support per entry at its first and at its last refresh.
        first = self.supports[: len(self.names)]
        last = self.supports[-len(self.names):]
        if len(self.supports) >= 2 * len(self.names):
            drift = abs(np.mean(last) - np.mean(first))
            if drift > self.SUPPORT_DRIFT * np.mean(first):
                self.fail(1, f"window support drifted from {np.mean(first):.0f} "
                             f"to {np.mean(last):.0f}")

    def quality(self) -> float:
        return float(np.mean(self.l2_values))

    def layer_metrics(self, records) -> Dict[str, float]:
        kernel = median_of(records, "engine.kernel_ms")
        serve = median_of(records, "serve_ms")
        extend = median_of(records, "store.extend_ms")
        out = {
            "frontend.request_build_ms": median_of(records, "frontend.request_build_ms"),
            "frontend.serve_ms": serve,
            "frontend.route_ms": median_of(records, "frontend.route_ms"),
            "frontend.coalesce_ms": median_of(records, "frontend.coalesce_ms"),
            "frontend.evaluate_ms": median_of(records, "frontend.evaluate_ms"),
            "frontend.reassemble_ms": median_of(records, "frontend.reassemble_ms"),
            "frontend.overhead_ratio": (serve - kernel) / kernel if kernel else 0.0,
            "engine.kernel_ms": kernel,
            "engine.table_fetch_ms": median_of(records, "engine.table_fetch_ms"),
            "engine.table_builds": median_of(records, "engine.table_builds"),
            "store.extend_ms": extend,
            "store.refresh_ms": median_of(records, "store.refresh_ms"),
            "builders.merge_build_ms": median_of(records, "builders.merge_build_ms"),
            "builders.merge_points_per_s": median_of(records, "builders.merge_points_per_s"),
            # With auto-refresh off, ShardRouter.extend is the learner's
            # extend plus a lock: the op's own extend time prices sampling.
            "sampling.extend_ms": extend,
            "sampling.window_support": self.supports[-1] if self.supports else 0.0,
            "ingest_samples_per_s": (
                sum(r.samples for r in records) / sum(r.write_seconds for r in records)
            ),
        }
        out.update(count_ratios(self._counts, registry_counts(self.router.registry)))
        return out


WORKLOADS = {
    cls.name: cls for cls in (MixedBatch, MixedBatchProcess, CohortCold, StreamRefresh)
}

"""Run one workload of the synopsis-serving benchmark and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload mixed_batch --seed 1 --seconds 25 --trace 0

Workloads: mixed_batch, mixed_batch_process, cohort_cold, stream_refresh
(``BENCHMARK.json`` says why each exists, ``workloads.py`` what it does).  Each is
a closed loop from one client thread: the next op starts when the previous
one has returned.  The program's own parallelism is capped at the CPUs
this process may use: the thread front end and the process tier each get
``min(4, nproc)`` workers.

The run sets the program up ``SETUP_REPS`` times (``setup_s`` is the
median), builds reference answers and warms the caches, runs untimed
warm-up ops (at least ``WARMUP_OPS`` and ``WARMUP_SECONDS``), then
measures ops for ``--seconds`` seconds, checking every answer outside the
timed region.

The end-to-end time metrics are CPU time: what the serving program (this
process and its workers, every thread) spent on a set-up or an op.  On a
shared host the hypervisor takes a vCPU away for up to a third of
the time in phases lasting minutes, and a closed loop's wall time grows
with it (more than in proportion: a thread holding the GIL stalls the
others); CPU time does not count the stolen time.  What the host does
to a core while it runs (a busy sibling hyperthread, a lower clock) still
moves CPU time, so each figure is scaled to the reference machine's core
speed by a probe timed between ops (``core_probe_ms``).  Wall times are
reported too, with the per-layer metrics, beside the share the host took
(``host.steal_share``) and the probe.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` splits the measuring time: an untraced half, whose wall
times (``wall.*``) and steal share are reported, then a traced half whose
per-layer numbers are reported, together with the traced-minus-untraced
median op CPU time (the cost of tracing).  The last
line of standard output is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``; the line before it records the seed, CPU count,
versions and sizes of the run.

Scratch stores go to ``.perfbench_work/`` in the checkout and are removed
before the run exits.  So are the processes the run starts: the process
tier's workers and the resource tracker that multiprocessing's spawn
context starts with them are stopped and waited for on every way out,
SIGTERM included.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPS = 3
WARMUP_OPS = 2
WARMUP_SECONDS = 1.0
# Core-speed probe: a fixed pure-Python loop, and the CPU milliseconds it
# takes per CPU on the reference machine (2 vCPUs, Python 3.11).  CPU times
# are reported at that speed; see core_probe_ms().
PROBE_LOOP = 40_000
REF_PROBE_MS = 3.3
# On mixed_batch, the traced medians of request building and serving must
# add up to the traced median op latency within this share: nothing else
# may hide inside the timed op.
ACCOUNTING_TOLERANCE = 0.05


def metric_units(section: str) -> dict:
    """Metric name -> unit for one section of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--profile", choices=("full", "smoke"), default="full",
        help="input sizes; 'smoke' is a seconds-long run of the same shape",
    )
    return parser.parse_args(argv)


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def tail(latencies):
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples_beyond)``; with ten or fewer
    samples it falls back to the maximum (and says so: 0 beyond).
    """
    ordered = sorted(latencies)
    index = max(len(ordered) - 11, 0) if len(ordered) > 10 else len(ordered) - 1
    return (
        ordered[index],
        100.0 * (index + 1) / len(ordered),
        len(ordered) - 1 - index,
    )


def hwm_kib(pid: int) -> int:
    """Peak resident set (VmHWM) of a live process, in KiB; 0 if unknown."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def reset_hwm(pid: int) -> None:
    """Restart a process's VmHWM from its current resident set."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as clear_refs:
            clear_refs.write("5")
    except OSError:
        pass  # the figure then also covers what came before


def core_probe_ms() -> float:
    """How fast this machine's cores run now, as the CPU milliseconds
    ``PROBE_LOOP`` iterations of a pure-Python loop take, mean over the CPUs.

    The loop runs pinned to each CPU in turn.  Its CPU time leaves out the
    time the host took the vCPU away, as the program's CPU time does, and
    takes in what slows a core while it runs.
    """
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            start = time.thread_time()
            total = 0
            for i in range(PROBE_LOOP):
                total += i * i
            times.append((time.thread_time() - start) * 1e3)
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


def at_ref_speed(cpu_seconds: float, probe_ms: float) -> float:
    """CPU time spent while the probe took ``probe_ms``, at reference speed."""
    return cpu_seconds * REF_PROBE_MS / probe_ms


def steal_ticks() -> int:
    """Time the hypervisor has run others on this machine's CPUs, summed
    over the CPUs, in clock ticks (``/proc/stat``); 0 if unknown."""
    try:
        with open("/proc/stat") as stat:
            return int(stat.readline().split()[8])
    except (OSError, ValueError, IndexError):
        return 0


def child_pids() -> list:
    """Pids of this process's live children, from ``/proc``."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # it ended meanwhile
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    Worker processes a failed set-up left behind are terminated.  The
    resource tracker that multiprocessing's spawn context starts would
    otherwise end only after this process has, so it is stopped here and
    waited for.  Any other child left is killed and reaped: SIGKILL, since
    the tracker ignores SIGTERM.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass  # it ended, or is not ours to reap


def measure(workload, seconds, traced, first_index):
    """Closed-loop ops for ``seconds`` of wall time; answers checked between.

    The core probe runs between ops; each op's ``probe_ms`` is the mean of
    the probes just before and just after it.  Returns the op records and
    the share of the CPUs' time the host took meanwhile.
    """
    records = []
    probes = [core_probe_ms()]
    steal0, start = steal_ticks(), time.perf_counter()
    while True:
        record = workload.op(first_index + len(records), traced)
        workload.verify(record)
        probes.append(core_probe_ms())
        record.probe_ms = (probes[-2] + probes[-1]) / 2
        records.append(record)
        if time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    stolen = (steal_ticks() - steal0) / os.sysconf("SC_CLK_TCK")
    return records, stolen / (elapsed * (os.cpu_count() or 1))


def op_metrics(workload, records, setups, peak_rss_mb, steal_share):
    """Metrics of the untraced ops and of the set-ups, by name.

    ``setups`` holds ``(wall_seconds, cpu_seconds, probe_ms)`` per set-up.
    CPU times are reported at reference core speed; the ``wall.`` metrics
    are the wall-time twins of the CPU-time ones, as measured.
    """
    cpu = [at_ref_speed(r.cpu_seconds, r.probe_ms) for r in records]
    wall = [r.seconds for r in records]
    requests = sum(r.requests for r in records)
    tail_s, tail_pct, beyond = tail(cpu)
    metrics = {
        "setup_s": statistics.median(at_ref_speed(c, p) for _, c, p in setups),
        "op_cpu_p50_ms": statistics.median(cpu) * 1e3,
        "op_cpu_tail_ms": tail_s * 1e3,
        "requests_per_cpu_s": requests / sum(cpu),
        "peak_rss_mb": peak_rss_mb,
        "synopsis_l2_error": workload.quality(),
        "wall.setup_s": statistics.median(w for w, _, _ in setups),
        "wall.op_p50_ms": statistics.median(wall) * 1e3,
        "wall.op_tail_ms": tail(wall)[0] * 1e3,
        "wall.requests_per_s": requests / sum(wall),
        "host.steal_share": steal_share,
        "host.core_probe_ms": statistics.median(r.probe_ms for r in records),
    }
    tail_info = {"op_tail_percentile": tail_pct, "op_tail_samples_beyond": beyond,
                 "ops": len(records)}
    return metrics, tail_info


def run(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    nproc = cpu_count()
    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.profile, nproc, workdir)
    try:
        setups, parts = [], []
        for rep in range(SETUP_REPS):
            if rep:
                workload.teardown()
            gc.collect()  # the previous set-up's garbage is not this one's cost
            before = core_probe_ms()
            start, cpu0 = workload.clock()
            parts.append(workload.setup())
            # The workers the set-up started count from their start.
            done, cpu1 = workload.clock()
            setups.append((done - start, cpu1 - cpu0, (before + core_probe_ms()) / 2))
        workload.setup_runs = parts
        workload.prepare()
        warmed, start = 0, time.perf_counter()
        while warmed < WARMUP_OPS or time.perf_counter() - start < WARMUP_SECONDS:
            workload.verify(workload.op(warmed, traced=False))
            warmed += 1
        # Set-up garbage is collected now, not inside a timed op, and the
        # peak resident set restarts here: peak_rss_mb covers the measured
        # ops only.
        gc.collect()
        pids = [os.getpid(), *workload.worker_pids]
        for pid in pids:
            reset_hwm(pid)
        plain_seconds = args.seconds / 2 if args.trace else args.seconds
        plain, steal_share = measure(workload, plain_seconds, False, warmed)
        rss_mb = sum(hwm_kib(pid) for pid in pids) / 1024.0
        traced = []
        if args.trace:
            traced, _ = measure(workload, args.seconds / 2, True, warmed + len(plain))
        workload.finish()
        metrics, tail_info = op_metrics(workload, plain, setups, rss_mb, steal_share)
        guards = []
        if args.trace:
            units = metric_units("per_layer")
            layers = {name: 0.0 for name in units}
            layers.update(workload.layer_metrics(traced))
            # Op statistics listed here come from the run's untraced half.
            layers.update({name: metrics[name] for name in units if name in metrics})
            traced_p50 = statistics.median(r.seconds for r in traced) * 1e3
            layers["trace.overhead_ms"] = statistics.median(
                at_ref_speed(r.cpu_seconds, r.probe_ms) for r in traced
            ) * 1e3 - metrics["op_cpu_p50_ms"]
            layers["failed_ratio"] = workload.failed / max(workload.attempted, 1)
            if args.workload == "mixed_batch":
                # Against the traced ops' own p50: host noise between the
                # two halves of the run must not trip the check.
                accounted = (layers["frontend.request_build_ms"]
                             + layers["frontend.serve_ms"]) / traced_p50
                tail_info["accounted_share"] = accounted
                if abs(accounted - 1.0) > ACCOUNTING_TOLERANCE:
                    guards.append(
                        f"request build + serve account for {accounted:.1%} of "
                        f"the traced median op (tolerance {ACCOUNTING_TOLERANCE:.0%})"
                    )
            reported = {name: (layers[name], unit) for name, unit in units.items()}
        else:
            units = metric_units("end_to_end")
            reported = {name: (metrics[name], unit) for name, unit in units.items()}
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "profile": args.profile,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sizes": workload.describe(),
        "setup_reps": SETUP_REPS,
        "setup_cpu_s_each": [c for _, c, _ in setups],
        "setup_wall_s_each": [w for w, _, _ in setups],
        "setup_probe_ms": [p for _, _, p in setups],
        "setup_parts_s": {key: workload.setup_part(key) for key in parts[0]},
        "warmup_ops": warmed,
        "traced_ops": len(traced),
        "problems": workload.problems + guards,
        **tail_info,
    }
    print(json.dumps({"info": info}))
    result = {
        "correct": workload.failed == 0 and not guards,
        "attempted": int(workload.attempted),
        "failed": int(workload.failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in reported.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # A SIGTERM unwinds like an exception, so the clean-up below still runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        code = run(parse_args(sys.argv[1:]))
    finally:
        stop_children()
    sys.exit(code)

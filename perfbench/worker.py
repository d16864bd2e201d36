"""One benchmark process: set up, run a workload's ops, print one JSON line.

Started by run.py in a fresh interpreter for every batch, so a batch never
sees a result that an earlier batch left in the program's caches.  With
--budget the batch stops starting ops once that many seconds of op time
have been measured (a partial batch that tops a run up to --seconds).
Untraced, every op time it reports is in reference-speed seconds (see
speed.py), next to the wall time without the speed kernel.

    python3 perfbench/worker.py --workload sweep --seed 1 --mode run [--trace] [--budget S]
"""

from __future__ import annotations

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import workloads as wl  # noqa: E402
from speed import SpeedIndex  # noqa: E402

TRACE_DIR = wl.ROOT / ".perfbench"


def setup(args) -> dict:
    """Import the package, build field tables and the workload's inputs."""
    wl.import_package()
    from tracing import MODULES

    for m in MODULES:
        importlib.import_module(f"drinfeld_cm.{m}")
    if args.workload == "sweep":
        orders = wl.sweep_orders(args.seed)[: args.limit]
        keys = [wl.order_key(o) for o in orders]
        return {"orders": orders, "keys": keys, "digest": wl.digest(keys), "inputs": f"{len(orders)} orders"}
    if args.workload == "queries":
        pool = wl.query_pool()
        pool_argv = [wl.order_argv(q, o) for q, o in pool]
        requests = wl.request_list(len(pool), args.seed)[: args.limit]
        return {
            "pool_argv": pool_argv,
            "requests": requests,
            "digest": wl.digest([pool_argv, requests]),
            "inputs": f"{len(requests)} requests over {len(pool)} orders",
        }
    size = "tiny" if args.limit is not None else "full"
    wl.base_field(3)
    dims = wl.LEMMA_SIZES[size]
    return {"size": size, "digest": wl.digest(dims), "inputs": f"exhaustive {dims}, seed-independent"}


def spent(args, units) -> bool:
    """True once a budgeted batch has measured its --budget of op time."""
    return args.budget is not None and sum(u[0] for u in units) >= args.budget


def run_sweep(args, inp, call) -> tuple:
    ref = wl.load_reference("sweep")
    units, failed = [], 0
    for i, (order, key) in enumerate(zip(inp["orders"], inp["keys"])):
        if spent(args, units):
            break
        t0 = perf_counter()
        try:
            got = call(i, wl.run_sweep_op, order)
        except Exception as exc:  # a raising op is a failed op; keep measuring
            got = repr(exc)
        units.append([perf_counter() - t0, 1, key, t0])
        if args.inject_fault and i == 0:
            got = dict(got, h_orbit=-1)
        failed += got != ref.get(key)
    return units, failed


def run_queries(args, inp, call, reset) -> tuple:
    from drinfeld_cm import cli

    ref = wl.load_reference("queries")
    requests, pool_argv = inp["requests"], inp["pool_argv"]

    def request(i, cmd, idx):
        argv = [cmd] + pool_argv[idx]
        t0 = perf_counter()
        try:
            code, out = call(i, wl.run_cli, argv, cli.main)
        except Exception as exc:  # a raising request is a failed request
            code, out = repr(exc), ""
        dt = perf_counter() - t0
        try:
            ok = code == 0 and wl.canonical_output(out) == ref.get(" ".join(argv))
        except ValueError:  # not JSON
            ok = False
        return dt, ok, t0

    # closed loop, one client: the head of the list is replayed first as
    # untimed warm-up, then every request of the list is timed
    warmup = int(len(requests) * wl.WARMUP_SHARE)
    for i, (cmd, idx) in enumerate(requests[:warmup]):
        request(i, cmd, idx)
    reset()
    units, failed = [], 0
    for i, (cmd, idx) in enumerate(requests):
        if spent(args, units):
            break
        dt, ok, t0 = request(i, cmd, idx)
        if args.inject_fault and i == 0:
            ok = False
        units.append([dt, 1, f"{cmd}#{i}", t0])
        failed += not ok
    return units, failed, warmup


def run_lemmas(args, inp, call) -> tuple:
    expect = wl.load_reference("lemmas")[inp["size"]]
    units, failed = [], 0
    for i, (label, run, count_key) in enumerate(wl.lemma_suites(inp["size"])):
        if spent(args, units):
            break
        ops = expect[count_key]
        t0 = perf_counter()
        try:
            got = call(i, run)
        except Exception as exc:  # the whole suite failed
            got = {"error": repr(exc)}
        units.append([perf_counter() - t0, ops, label, t0])
        if args.inject_fault and i == 0:
            got = dict(got, ok=False)
        if not (got.get("ok") is True and got.get(count_key) == ops):
            failed += ops
    return units, failed


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=["sweep", "queries", "lemmas"], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "run"], required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--limit", type=int, help="smoke size: first LIMIT orders or requests, tiny lemma suites")
    ap.add_argument("--inject-fault", action="store_true", help="corrupt the first answer (smoke test)")
    ap.add_argument("--budget", type=float, help="stop starting ops after this many seconds of op time")
    args = ap.parse_args()

    inp = setup(args)
    # wall clock here; run.py scales it by the run's kernel time
    out = {"setup_s": perf_counter() - T_START, "digest": inp["digest"], "inputs": inp["inputs"]}
    if args.mode == "run":
        out.update(run_batch(args, inp))
    sys.stdout.write(json.dumps(out) + "\n")


def run_batch(args, inp) -> dict:
    """Run the workload's ops once; untraced, their times are normalised for host speed."""
    out = {}
    tracer = None
    speed = SpeedIndex()
    if args.trace:  # spans time the program alone: no speed kernel runs in a traced batch
        from tracing import Tracer, installed

        tracer = Tracer()
        call, reset, ctx = tracer.run_op, tracer.reset, installed(tracer)
    else:

        def call(_op_id, fn, *a):
            return fn(*a)

        reset, ctx = (lambda: None), contextlib.nullcontext()
        speed.start()
    try:
        with ctx:
            if args.workload == "sweep":
                units, failed = run_sweep(args, inp, call)
            elif args.workload == "queries":
                units, failed, out["warmup"] = run_queries(args, inp, call, reset)
            else:
                units, failed = run_lemmas(args, inp, call)
    finally:
        speed.stop()
    if tracer is None:
        if not speed.durations:  # a batch shorter than one sampling interval
            speed.sample()
        ref_units, raw_units = [], []
        for dt, n, label, t0 in units:
            ref, net = speed.normalise(t0, t0 + dt)
            ref_units.append([ref, n, label])
            raw_units.append([net, n, label])
        out["kernel_ms"] = 1000 * speed.median_kernel_s()
    else:
        ref_units = raw_units = [u[:3] for u in units]
    out.update(
        units=ref_units,
        raw_units=raw_units,
        failed=failed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        metrics, op_time, op_calls, by_name = tracer.metrics()
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{args.workload}.npz"
        tracer.save(path)
        out.update(layer=metrics, op_time_s=op_time, op_calls=op_calls, by_name=by_name, spans_file=str(path.relative_to(wl.ROOT)))
    return out

if __name__ == "__main__":
    main()

"""The drinfeld-cm benchmark: three workloads, untraced or traced.

    python3 perfbench/run.py --workload sweep|queries|lemmas --seed N --seconds S --trace 0|1

Untraced (--trace 0), the last line of stdout is a JSON object whose
`metrics` are the end-to-end metrics, with op times in reference-speed
seconds (speed.py); traced (--trace 1), it holds the
per-layer metrics of one traced batch plus the tracing overhead.  The
lines before it are the human-readable report.  Every op is checked
against the stored reference answers.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("sweep", "queries", "lemmas")
SETUP_SAMPLES = 5  # fresh processes whose set-up time gives the setup_s median
RUN_LIMIT_S = 175.0  # every worker must end before the run has taken this long

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts worker processes against one deadline."""

    def __init__(self, args):
        self.args = args
        self.t0 = time.monotonic()
        env = dict(os.environ)
        env.pop("DRINFELD_CM_PREC", None)  # the reference answers use the default precision
        self.env = env

    def worker(self, mode: str, *extra: str) -> dict:
        a = self.args
        cmd = [sys.executable, str(WORKER), "--workload", a.workload, "--seed", str(a.seed), "--mode", mode]
        if a.limit is not None:
            cmd += ["--limit", str(a.limit)]
        if a.inject_fault:
            cmd += ["--inject-fault"]
        left = RUN_LIMIT_S - (time.monotonic() - self.t0)
        if left <= 1:
            raise BenchError("out of time before starting a worker")
        try:
            proc = subprocess.run(
                cmd + list(extra), cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=left
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker exceeded the run's time limit: {' '.join(cmd)}") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def batches(self) -> list:
        """Untraced batches, each in a fresh process so that each is cold.

        A batch is the whole sweep, the whole lemma suite, or the whole
        request list.  The first batch always runs whole; later ones are
        budgeted, so that the run stops once --seconds of op time have been
        measured, however long one batch takes.
        """
        out, measured = [], 0.0
        while True:
            extra = ["--budget", repr(self.args.seconds - measured)] if out else []
            out.append(self.worker("run", *extra))
            measured += sum(t for t, _, _ in out[-1]["raw_units"])
            if self.args.limit is not None or measured >= self.args.seconds:
                return out


# -- statistics --------------------------------------------------------------


def percentile(units: list, p: float) -> float:
    """Op-weighted nearest-rank percentile of per-op seconds.

    A unit [seconds, ops, label] stands for `ops` ops that each took
    seconds/ops; a lemma suite call is one unit.
    """
    rows = sorted((t / n, n) for t, n, _ in units)
    need = p * sum(n for _, n in rows)
    acc = 0
    for per_op, n in rows:
        acc += n
        if acc >= need:
            return per_op
    return rows[-1][0]


def beyond(units: list, p: float) -> int:
    cut = percentile(units, p)
    return sum(n for t, n, _ in units if t / n > cut)


def pooled(batches: list) -> list:
    """One unit per op (label): its mean time over the batches that ran it.

    Every batch of a run has the same inputs, and the first batch runs them
    all, so the pooled units are one whole batch whichever ops a partial
    batch repeated.
    """
    acc: dict = {}
    for b in batches:
        for t, n, label in b["units"]:
            prev = acc.get(label, (0.0, 0, 0))
            acc[label] = (prev[0] + t, n, prev[2] + 1)
    return [[t / runs, n, label] for label, (t, n, runs) in acc.items()]


def end_to_end(batches: list, setups: list) -> tuple:
    units = pooled(batches)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": sum(n for _, n, _ in units) / sum(t for t, _, _ in units),
        "op_p50_ms": 1000 * percentile(units, 0.5),
        "op_p90_ms": 1000 * percentile(units, 0.9),
        "peak_rss_mb": max(b["peak_rss_mb"] for b in batches),
    }
    extra = {}  # per-command medians, queries only (labels are "command#index")
    if any("#" in u[2] for u in units):
        for cmd, _ in wl.QUERY_MIX:
            mine = [u for u in units if u[2].split("#")[0] == cmd]
            extra[f"{cmd}_p50_ms"] = (1000 * percentile(mine, 0.5) if mine else float("nan"), len(mine))
    return metrics, extra, units


# -- report ------------------------------------------------------------------


def header(a, batches: list) -> None:
    b = batches[0]
    digests = {x["digest"] for x in batches}
    if len(digests) != 1:
        raise BenchError(f"batches saw different inputs: {digests}")
    print(f"workload {a.workload}  seed {a.seed}  inputs: {b['inputs']}  input digest {b['digest']}")
    if a.workload == "lemmas":
        print("  (lemmas is exhaustive: its inputs do not depend on the seed)")
    if "warmup" in b:
        print(f"  closed loop, 1 client; {b['warmup']} warm-up requests excluded from timing")
    print(f"  batches: {len(batches)}, each in a fresh process (the first whole, later ones partial)")


def report_untraced(a, batches, setups) -> dict:
    metrics, extra, units = end_to_end(batches, setups)
    raw, _, _ = end_to_end([dict(b, units=b["raw_units"]) for b in batches], setups)
    kernel_ms = statistics.median(b["kernel_ms"] for b in batches)
    # set-up runs before any kernel sample of its process: it is scaled by the run's kernel
    metrics["setup_s"] *= 1000 * speed.REFERENCE_S / kernel_ms
    ops = sum(n for b in batches for _, n, _ in b["units"])
    distinct = sum(n for _, n, _ in units)
    measured = sum(t for b in batches for t, _, _ in b["raw_units"])
    failed = sum(b["failed"] for b in batches)
    header(a, batches)
    print(f"  times in reference-speed seconds: the speed kernel took a median {kernel_ms:.4f} ms,")
    print(f"  against {1000 * speed.REFERENCE_S:g} ms at the reference speed (see speed.py)")
    print(f"  {'setup_s':<22}{metrics['setup_s']:>12.4f} s      median of {len(setups)} fresh processes")
    print(f"  {'ops_per_s':<22}{metrics['ops_per_s']:>12.3f} 1/s    {ops} ops in {measured:.2f} s, pooled per op")
    print(f"  {'op_p50_ms':<22}{metrics['op_p50_ms']:>12.3f} ms     n = {distinct}")
    print(f"  {'op_p90_ms':<22}{metrics['op_p90_ms']:>12.3f} ms     n = {distinct}, {beyond(units, 0.9)} beyond p90")
    for name, (value, n) in extra.items():
        print(f"  {name:<22}{value:>12.3f} ms     n = {n}")
    print(f"  {'peak_rss_mb':<22}{metrics['peak_rss_mb']:>12.1f} MB")
    print(f"  {'fail_ratio':<22}{failed / ops:>12.4f} ratio  {failed} of {ops} ops failed")
    print("  wall clock, for comparison (not normalised):")
    for name in ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms"):
        print(f"  {name:<22}{raw[name]:>12.4f} {END_TO_END[name]}")
    return {
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
    }


def report_traced(a, untraced: list, traced: dict) -> dict:
    import tracing

    units_u = untraced[0]["raw_units"]  # wall time on both sides
    ops = sum(n for _, n, _ in traced["raw_units"])
    ops_u = sum(n for _, n, _ in units_u)
    rate_u = ops_u / sum(t for t, _, _ in units_u)
    rate_t = ops / sum(t for t, _, _ in traced["raw_units"])
    layer = dict(traced["layer"], **{"trace.overhead": rate_u / rate_t})
    op_time = traced["op_time_s"]
    header(a, [traced])
    print(f"  traced {traced['op_calls']} op spans, {op_time:.3f} s of op time; spans in {traced['spans_file']}")
    print(f"  tracing overhead: untraced {rate_u:.3f} ops/s, traced {rate_t:.3f} ops/s, ratio {layer['trace.overhead']:.3f}")
    print(f"  {'span':<36}{'calls':>12}{'self_s':>12}{'share':>8}")
    by_name = traced["by_name"]
    for _, _, name in tracing.SPANS + ((None, None, tracing.OP),):
        calls, secs = by_name.get(name, (0, 0.0))
        share = secs / op_time if op_time else 0.0
        print(f"  {name:<36}{calls:>12}{secs:>12.4f}{share:>8.1%}")
    print(f"  {'layer':<36}{'':>12}{'self_s':>12}{'share':>8}")
    for group, modules in tracing.LAYERS.items():
        secs = sum(s for n, (_, s) in by_name.items() if n.split(".")[0] in modules)
        share = secs / op_time if op_time else 0.0
        print(f"  {group + ' (' + ', '.join(modules) + ')':<36}{'':>12}{secs:>12.4f}{share:>8.1%}")
    units = tracing.per_layer_units()
    spanned = {f"{name}.{kind}" for _, _, name in tracing.SPANS for kind in ("calls", "self_s")}
    for name, unit in units.items():
        if name not in spanned:
            value = f"{layer[name]:d}" if unit == "count" else f"{layer[name]:.4f}"
            print(f"  {name:<40}{value:>16} {unit}")
    failed = traced["failed"] + sum(b["failed"] for b in untraced)
    return {
        "correct": failed == 0,
        "attempted": ops + ops_u,
        "failed": failed,
        "metrics": {k: {"value": layer[k], "unit": u} for k, u in units.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="drinfeld-cm benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--limit", type=int, help=argparse.SUPPRESS)  # smoke size
    ap.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)  # smoke test
    a = ap.parse_args()
    # a terminated run raises SystemExit, so subprocess.run kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "drinfeld_cm" / "__init__.py").is_file():
        print(f"no drinfeld_cm package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(a)
    try:
        if a.trace:
            untraced = [runner.worker("run")]
            result = report_traced(a, untraced, runner.worker("run", "--trace"))
        else:
            batches = runner.batches()
            setups = [b["setup_s"] for b in batches]
            while len(setups) < SETUP_SAMPLES:
                setups.append(runner.worker("setup")["setup_s"])
            result = report_untraced(a, batches, setups)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

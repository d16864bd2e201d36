"""Inputs, operations and reference checks of the drinfeld-cm benchmark.

Every input is a pure function of the workload seed, and the program only
ever sees the generated inputs (orders, argv lists).  The module imports
`drinfeld_cm` lazily so that `run.py` can fail cleanly when the package is
absent.
"""

from __future__ import annotations

import bisect
import contextlib
import gzip
import hashlib
import io
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference"

# sweep: every odd-characteristic order of F_3[T] with |D| <= 3^4
SWEEP_Q = 3
SWEEP_DBOUND = 3**4

# queries: (q, |D| bound) of the order pool, request mix in percent, Zipf
# exponent, requests per batch and the share of them replayed as warm-up
QUERY_POOLS = ((3, 27), (4, 16), (5, 25))
QUERY_MIX = (("hilbert", 35), ("height", 25), ("class-number", 25), ("enumerate", 15))
ZIPF_S = 1.2
QUERY_REQUESTS = 600
WARMUP_SHARE = 0.1

# lemmas: (maxdeg of the analytic suite, max_deg_a, max_deg_d of the counting suite)
LEMMA_SIZES = {"full": (9, 4, 6), "tiny": (3, 2, 3)}


def import_package():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import drinfeld_cm  # noqa: F401


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)


def digest(items) -> str:
    return hashlib.sha256(canonical(items).encode()).hexdigest()[:16]


def base_field(q: int):
    from drinfeld_cm.cli import _factor_prime_power
    from drinfeld_cm.ffield import field

    p, r = _factor_prime_power(q)
    return field(p, r)


def order_key(order) -> str:
    return canonical(order.to_jsonable())


def _codes(poly) -> str:
    return "[" + ",".join(str(c) for c in poly.coeffs) + "]"


def order_argv(q: int, order) -> list:
    """The CLI flags that rebuild `order` (odd orders go through --D = D_O)."""
    k = order.field
    argv = ["--q", str(q), "--flavor", k.flavor]
    if k.flavor == "odd":
        return argv + ["--D", _codes(order.D_O)]
    if k.flavor == "even_sep":
        argv += ["--B", _codes(k.B), "--C", _codes(k.C)]
    return argv + ["--f", _codes(order.f)]


# -- sweep -------------------------------------------------------------------


def sweep_orders(seed: int) -> list:
    """The 150 sweep orders in a seed-shuffled sequence."""
    from drinfeld_cm.sweeps import iter_orders

    orders = list(iter_orders(base_field(SWEEP_Q), SWEEP_DBOUND))
    random.Random(seed).shuffle(orders)
    return orders


def sweep_record(rep) -> dict:
    return {
        "h_orbit": rep.h_orbit,
        "h_conductor": rep.h_conductor,
        "h_lroute": rep.h_lroute,
        "height": str(rep.height),
        "log_j": sorted(str(x) for x in rep.logs),
    }


def run_sweep_op(order) -> dict:
    from drinfeld_cm import sweeps

    return sweep_record(sweeps.order_report(order, check_brown=True))


# -- queries -----------------------------------------------------------------


def query_pool() -> list:
    """(q, order) for every order of the pool, most popular first.

    Popularity falls with the discriminant degree; within one degree the
    three fields take turns, so char 2 is among the most popular orders.
    """
    from drinfeld_cm.sweeps import iter_orders

    keyed = []
    for q, bound in QUERY_POOLS:
        seen: dict = {}
        for o in iter_orders(base_field(q), bound):
            d = o.disc_deg()
            seen[d] = seen.get(d, 0) + 1
            keyed.append(((d, seen[d], q), q, o))
    keyed.sort(key=lambda row: row[0])
    return [(q, o) for _, q, o in keyed]


def request_list(pool_size: int, seed: int, n: int = QUERY_REQUESTS) -> list:
    """n requests (command, pool index) in a seed-shuffled order.

    The multiset is a systematic sample of the Zipf(ZIPF_S) x QUERY_MIX
    distribution over the pool (pool index = popularity rank - 1), the same
    for every seed; the seed sets the arrival order.
    """
    items, cum, acc = [], [], 0.0
    zipf = sum(rank**-ZIPF_S for rank in range(1, pool_size + 1))
    for cmd, pct in QUERY_MIX:  # command-major, so every command gets its exact share
        for rank in range(1, pool_size + 1):
            acc += pct * rank**-ZIPF_S / zipf
            items.append((cmd, rank - 1))
            cum.append(acc)
    out = [items[min(bisect.bisect_left(cum, (i + 0.5) / n * acc), len(items) - 1)] for i in range(n)]
    random.Random(seed).shuffle(out)
    return out


def run_cli(argv, main) -> tuple:
    """(exit code, stdout) of one in-process `cli.main` call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def canonical_output(stdout: str) -> str:
    return canonical(json.loads(stdout))


# -- lemmas ------------------------------------------------------------------


def lemma_suites(size: str) -> list:
    """(label, call, count key, dims) of the two exhaustive lemma suites over F_3."""
    from drinfeld_cm import verify

    maxdeg, da, dd = LEMMA_SIZES[size]
    base = base_field(3)
    return [
        ("analytic", lambda: verify.check_analytic_lemmas(base, maxdeg=maxdeg), "polynomials"),
        ("counting", lambda: verify.check_counting_lemmas(base, da, dd), "pairs"),
    ]


# -- references --------------------------------------------------------------


def load_reference(name: str):
    path = REFERENCE / f"{name}.json.gz"
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)

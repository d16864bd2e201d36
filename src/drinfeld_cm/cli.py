"""Command-line front end.

Subcommands: enumerate, class-number, height, hilbert, search-andre-oort,
search-units, certificate, verify.  All reports echo the configuration
(field modulus, precision, seed) and are deterministic for a fixed seed.
Exit codes: 0 ok, 1 invariant violation, 2 precision exhaustion, 3 bad input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadInputError, InvariantError, PrecisionError
from .ffield import FieldDesc, field
from . import polyring as pr
from .quadfield import Order, QuadField, order_from, order_from_discriminant, validate_field

DEFAULT_PREC = int(os.environ.get("DRINFELD_CM_PREC", "60"))
MAX_Q_GUARD = 16


@dataclass
class RunConfig:
    p: int
    r: int
    prec: int
    seed: int
    d_bound: int
    deg_bound: int
    output: str
    jobs: int
    modulus: tuple | None = None

    def base(self) -> FieldDesc:
        return field(self.p, self.r, 1, self.modulus)

    def header(self) -> dict:
        return {
            "schema": 1,
            "field": self.base().header(),
            "prec": self.prec,
            "seed": self.seed,
        }


def _factor_prime_power(q: int):
    p = 2
    while p * p <= q:
        if q % p == 0:
            r = 0
            t = q
            while t % p == 0:
                t //= p
                r += 1
            if t != 1:
                raise BadInputError(f"q = {q} is not a prime power")
            return p, r
        p += 1
    return q, 1


def _field_args(sub):
    sub.add_argument("--flavor", choices=["odd", "even_sep", "even_insep"], required=True)
    sub.add_argument("--D", help="defining D for the odd flavor (human form or [codes])")
    sub.add_argument("--B", help="Hasse normal form numerator B (even_sep)")
    sub.add_argument("--C", help="Hasse normal form denominator C (even_sep)")
    sub.add_argument("--f", default="1", help="conductor (monic), default 1")


def _build_order(cfg: RunConfig, args) -> Order:
    base = cfg.base()
    f = pr.parse_poly(base, args.f)
    if args.flavor == "odd":
        if not args.D:
            raise BadInputError("--D is required for the odd flavor")
        D = pr.parse_poly(base, args.D)
        if args.f != "1":
            k = validate_field(base, "odd", D=D)
            return order_from(k, f)
        return order_from_discriminant(base, D)
    if args.flavor == "even_sep":
        if not (args.B and args.C):
            raise BadInputError("--B and --C are required for even_sep")
        k = validate_field(base, "even_sep", B=pr.parse_poly(base, args.B), C=pr.parse_poly(base, args.C))
        return order_from(k, f)
    k = validate_field(base, "even_insep")
    return order_from(k, f)


def _emit(cfg: RunConfig, payload: dict):
    payload = {**cfg.header(), **payload}
    print(json.dumps(payload, sort_keys=True, default=str))


def cmd_enumerate(cfg: RunConfig, args) -> int:
    from .cmpoints import enumerate_points

    order = _build_order(cfg, args)
    pts = enumerate_points(order)
    if cfg.output == "json":
        rows = [
            {
                "a": pr.poly_to_codes(p.a),
                "b": pr.poly_to_codes(p.b),
                "c": pr.poly_to_codes(p.c),
                "n": p.n,
                "eps": str(p.eps),
                "e": p.e_code,
                "dist_e_log": p.dist_e_log,
            }
            for p in pts
        ]
        _emit(cfg, {"order": order.to_jsonable(), "points": rows})
    else:
        print(f"# {cfg.header()}")
        print(f"# order {order.label()}")
        print("a\tb\tc\tn\teps\te\tdist_e")
        for p in pts:
            print(p.tsv_row())
    return 0


def cmd_class_number(cfg: RunConfig, args) -> int:
    from .brownval import OrderCM
    from .classno import class_number_by_orbit, l_route

    order = _build_order(cfg, args)
    cm = OrderCM(order)
    by_formula = cm.class_number_by_conductor()
    by_orbit = class_number_by_orbit(order, data=cm)
    routes = {"orbit": by_orbit, "conductor": by_formula}
    k = order.field
    if k.infinite_type == "inert" and k.flavor != "even_insep" and not k.is_constant_extension and order.is_maximal():
        data = l_route(k)
        routes["l_route"] = data.h_OK
        routes["lambda"] = data.lam
    agree = len({routes["orbit"], routes["conductor"], routes.get("l_route", routes["orbit"])}) == 1
    _emit(cfg, {"order": order.to_jsonable(), "routes": routes, "agree": agree})
    if not agree:
        raise InvariantError("class-number routes disagree")
    return 0


def cmd_height(cfg: RunConfig, args) -> int:
    from .bounds import lower_bounds_h
    from .brownval import OrderCM, moduli_of, weil_height

    order = _build_order(cfg, args)
    cm = OrderCM(order)
    lb = lower_bounds_h(order, data=cm)  # certifies the moduli against the conductor formula
    mods = moduli_of(order, data=cm)
    h = weil_height(order, data=cm)
    payload = {
        "order": order.to_jsonable(),
        "m": len(mods),
        "heights": {
            "weil": str(h),
            "weil_decimal": f"{float(h):.6f}",
            "easy_lower": lb["easy"].decimal(6) if lb["easy"] else None,
            "wei_lower": lb["wei"].decimal(6) if lb["wei"] else None,
            "cor_lower": lb["cor"].decimal(6),
            "exact_lower_endpoints": {
                k: (str(v.lo) if v is not None else None) for k, v in lb.items() if k in ("easy", "wei", "cor")
            },
        },
        "conjugate_valuations": [str(m.log_j) for m in mods],
    }
    _emit(cfg, payload)
    return 0


def cmd_hilbert(cfg: RunConfig, args) -> int:
    from .modforms import hilbert_poly, unit_check

    order = _build_order(cfg, args)
    H = hilbert_poly(order)
    verdict, deg = unit_check(H)
    payload = H.to_jsonable()
    payload["unit_check"] = {"verdict": verdict, "norm_degree": str(deg)}
    payload["branch"] = "canonical square roots: least coordinate vector; Artin-Schreier: least root"
    _emit(cfg, {"hilbert": payload})
    return 0


def cmd_certificate(cfg: RunConfig, args) -> int:
    from .bounds import final_certificate

    rep = final_certificate(cfg.base().q)
    _emit(cfg, {"certificate": rep.to_jsonable()})
    return 0 if rep.ok() else 1


def cmd_search_andre_oort(cfg: RunConfig, args) -> int:
    from .bounds import andre_oort_search

    base = cfg.base()
    deg_bound = cfg.deg_bound if cfg.deg_bound > 0 else base.q**2 - 1
    rep = andre_oort_search(base, cfg.d_bound, deg_bound)
    if cfg.output == "json":
        _emit(cfg, {"search": rep})
    else:
        print(f"# {cfg.header()}")
        print("degree\tgamma\tpair")
        for h in rep["hits"]:
            print(f"{h['degree']}\t{h['gamma']}\t{h['pair']}")
    return 0


def cmd_search_units(cfg: RunConfig, args) -> int:
    from .bounds import unit_search

    rep = unit_search(cfg.base(), cfg.d_bound)
    if cfg.output == "json":
        _emit(cfg, {"search": rep})
    else:
        print(f"# {cfg.header()}")
        print("order\tdisc_deg\troute\tnorm_degree\tunit\tlaclef")
        for row in rep["rows"]:
            print(
                "\t".join(
                    str(row.get(k, "")) for k in ("order", "disc_deg", "route", "norm_degree", "unit", "laclef_consistent")
                )
            )
    if rep["units_found"]:
        raise InvariantError("a singular unit was reported")  # pragma: no cover
    return 0


def _verify_worker(payload):
    # top-level for pickling; rebuilds orders in the worker process
    p, r, modulus, order_jsons, check_brown = payload
    base = field(p, r, 1, modulus)
    from .quadfield import field_from_jsonable
    from .sweeps import order_report

    out = []
    for oj in order_jsons:
        k = field_from_jsonable(base, oj["field"])
        order = order_from(k, pr.Poly(base, oj["f"]))
        rep = order_report(order, check_brown=check_brown)
        out.append((oj["label"], rep.h_orbit, len(rep.points)))
    return out


def cmd_verify(cfg: RunConfig, args) -> int:
    from . import verify as vf
    from .sweeps import iter_orders

    base = cfg.base()
    ok_all = True
    if cfg.jobs > 1:
        # parallel Brown sweep (order-level), then the sequential lemma suites
        from concurrent.futures import ProcessPoolExecutor

        orders = list(iter_orders(base, cfg.d_bound))
        payloads = []
        chunk = max(1, len(orders) // (4 * cfg.jobs))
        for i in range(0, len(orders), chunk):
            batch = [{**o.to_jsonable(), "label": o.label()} for o in orders[i : i + chunk]]
            payloads.append((cfg.p, cfg.r, cfg.modulus, batch, True))
        rows = []
        with ProcessPoolExecutor(max_workers=cfg.jobs) as ex:
            for part in ex.map(_verify_worker, payloads):
                rows.extend(part)
        rows.sort()
        print(f"PASS brown-vs-numeric: {len(rows)} orders via {cfg.jobs} workers")
        checks = [
            vf.check_appendix_lemmas(base, cfg.d_bound),
            vf.check_class_numbers(base, cfg.d_bound),
            vf.check_elliptic_lemmas(base, cfg.d_bound),
            vf.check_counting_lemmas(base),
            vf.check_analytic_lemmas(base),
            vf.check_andre_oort(base, cfg.d_bound),
            vf.check_unit_sweep(base, cfg.d_bound),
            vf.check_certificate(base.q),
        ]
        if base.q == 3:
            checks.insert(0, vf.check_hayes())
    else:
        checks = vf.run_all(base, cfg.d_bound)
    for c in checks:
        status = "PASS" if c["ok"] else "FAIL"
        extra = {k: v for k, v in c.items() if k not in ("name", "ok")}
        print(f"{status} {c['name']}: {json.dumps(extra, sort_keys=True, default=str)}")
        ok_all = ok_all and c["ok"]
    return 0 if ok_all else 1


COMMANDS = {
    "enumerate": cmd_enumerate,
    "class-number": cmd_class_number,
    "height": cmd_height,
    "hilbert": cmd_hilbert,
    "certificate": cmd_certificate,
    "search-andre-oort": cmd_search_andre_oort,
    "search-units": cmd_search_units,
    "verify": cmd_verify,
}


def _global_flags(target, suppress: bool):
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    target.add_argument("--q", type=int, default=d(3), help="prime power q (default 3)")
    target.add_argument("--modulus", default=d(None), help="override modulus of F_q over F_p, as [c0,c1,...]")
    target.add_argument("--prec", type=int, default=d(DEFAULT_PREC), help="working precision (env DRINFELD_CM_PREC)")
    target.add_argument("--seed", type=int, default=d(0), help="seed for the factorization splitter")
    target.add_argument("--dbound", type=int, default=d(0), help="discriminant size bound |D| (default q^6)")
    target.add_argument("--degbound", type=int, default=d(0), help="product degree bound (default q^2 - 1)")
    target.add_argument("--jobs", type=int, default=d(1), help="worker processes for sweeps")
    target.add_argument("--output", choices=["tsv", "json"], default=d("json"))
    target.add_argument("--allow-large-q", action="store_true", default=d(False), help="lift the q <= 16 guard")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="drinfeld-cm",
        description="Exact arithmetic for rank-2 Drinfeld modules with complex multiplication.",
    )
    _global_flags(ap, suppress=False)
    sp = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub = sp.add_parser(name)
        # the same flags are accepted after the subcommand (suppressed defaults
        # so they only override when given)
        _global_flags(sub, suppress=True)
        if name in ("enumerate", "class-number", "height", "hilbert"):
            _field_args(sub)
    return ap


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()  # building costs about 40 parses; it is reused
    args = _parser.parse_args(argv)
    try:
        p, r = _factor_prime_power(args.q)
        if args.q > MAX_Q_GUARD and not args.allow_large_q:
            raise BadInputError(f"q = {args.q} exceeds the desk-scale guard (use --allow-large-q)")
        modulus = None
        if args.modulus:
            modulus = tuple(int(x) for x in args.modulus.strip("[]").split(","))
        cfg = RunConfig(
            p=p,
            r=r,
            prec=args.prec,
            seed=args.seed,
            d_bound=args.dbound if args.dbound > 0 else args.q**6,
            deg_bound=args.degbound,
            output=args.output,
            jobs=args.jobs,
            modulus=modulus,
        )
        return COMMANDS[args.command](cfg, args)
    except BadInputError as e:
        print(f"bad input: {e}", file=sys.stderr)
        return 3
    except PrecisionError as e:
        print(f"precision exhausted: {e}", file=sys.stderr)
        return 2
    except InvariantError as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

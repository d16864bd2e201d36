"""Command-line front end.

Subcommands: enumerate, class-number, height, hilbert, search-andre-oort,
search-units, certificate, verify.  Every report echoes the field (with its
modulus).  Reports are deterministic and take no seed or precision setting:
the factorization's random splitter is seeded by its input, and every
computation certifies the precision it needs.
Exit codes: 0 ok, 1 invariant violation, 2 precision exhaustion, 3 bad input
(including a malformed command line).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .bounds import andre_oort_search, final_certificate, lower_bounds_h, unit_search
from .brownval import OrderCM, moduli_of, weil_height
from .classno import l_data, l_route_applies
from .errors import BadInputError, InvariantError, PrecisionError
from .ffield import FieldDesc, factor_int, field
from .modforms import hilbert_poly, unit_check
from . import polyring as pr
from .quadfield import Order, order_from, order_from_discriminant, validate_field
from .verify import run_all

MAX_Q_GUARD = 16


@dataclass
class RunConfig:
    p: int
    r: int
    d_bound: int
    deg_bound: int
    output: str
    modulus: tuple | None = None

    def base(self) -> FieldDesc:
        return field(self.p, self.r, 1, self.modulus)

    def header(self) -> dict:
        # "prec" and "seed" are fixed: stored reports compare the whole header
        return {
            "schema": 1,
            "field": self.base().header(),
            "prec": 60,
            "seed": 0,
        }


def _factor_prime_power(q: int):
    """(p, r) with q = p^r; (q, 1) for q < 2, which the field then rejects as not prime."""
    items = factor_int(q)
    if len(items) > 1:
        raise BadInputError(f"q = {q} is not a prime power")
    return items[0] if items else (q, 1)


def _field_args(sub):
    sub.add_argument("--flavor", choices=["odd", "even_sep", "even_insep"], required=True)
    sub.add_argument("--D", help="defining D for the odd flavor (human form or [codes])")
    sub.add_argument("--B", help="Hasse normal form numerator B (even_sep)")
    sub.add_argument("--C", help="Hasse normal form denominator C (even_sep)")
    sub.add_argument(
        "--f",
        help="conductor (monic) of the order in the field; unset: the order of discriminant exactly D "
        "for the odd flavor, the maximal order for the others",
    )


def _build_order(cfg: RunConfig, args) -> Order:
    base = cfg.base()
    f = pr.one(base) if args.f is None else pr.parse_poly(base, args.f)
    if args.flavor == "odd":
        if not args.D:
            raise BadInputError("--D is required for the odd flavor")
        D = pr.parse_poly(base, args.D)
        if args.f is None:
            return order_from_discriminant(base, D)
        k = validate_field(base, "odd", D=D)
    elif args.flavor == "even_sep":
        if not (args.B and args.C):
            raise BadInputError("--B and --C are required for even_sep")
        k = validate_field(base, "even_sep", B=pr.parse_poly(base, args.B), C=pr.parse_poly(base, args.C))
    else:
        k = validate_field(base, "even_insep")
    return order_from(k, f)


def _emit(cfg: RunConfig, payload: dict):
    payload = {**cfg.header(), **payload}
    print(json.dumps(payload, sort_keys=True, default=str))


def cmd_enumerate(cfg: RunConfig, args) -> int:
    """list the reduced CM points of one order"""
    order = _build_order(cfg, args)
    pts = OrderCM.of(order).points
    if cfg.output == "json":
        rows = [
            {
                "a": list(p.a.coeffs),
                "b": list(p.b.coeffs),
                "c": list(p.c.coeffs),
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
    """class number of one order by every applicable route"""
    order = _build_order(cfg, args)
    # moduli_of checks the orbit count against the conductor route, which on
    # an inert maximal order is the L-route's h(O_K): every route agrees here
    routes = {"orbit": len(moduli_of(order)), "conductor": OrderCM.of(order).class_number_by_conductor()}
    if l_route_applies(order):
        data = l_data(order.field)
        routes["l_route"] = data.h_OK
        routes["lambda"] = data.lam
    _emit(cfg, {"order": order.to_jsonable(), "routes": routes, "agree": True})
    return 0


def cmd_height(cfg: RunConfig, args) -> int:
    """Weil height of one order's singular moduli and its lower bounds"""
    order = _build_order(cfg, args)
    lb = lower_bounds_h(order)  # certifies the moduli against the conductor formula
    mods = moduli_of(order)
    h = weil_height(mods)
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
    """Hilbert class polynomial of one order and its unit verdict"""
    order = _build_order(cfg, args)
    H = hilbert_poly(order)
    verdict, deg = unit_check(H)
    payload = H.to_jsonable()
    payload["unit_check"] = {"verdict": verdict, "norm_degree": str(deg)}
    payload["branch"] = "canonical square roots: least coordinate vector; Artin-Schreier: least root"
    _emit(cfg, {"hilbert": payload})
    return 0


def cmd_certificate(cfg: RunConfig, args) -> int:
    """the discriminant-bound constants for q, certified"""
    rep = final_certificate(cfg.base())
    _emit(cfg, {"certificate": rep.to_jsonable()})
    return 0 if rep.ok() else 1


def cmd_search_andre_oort(cfg: RunConfig, args) -> int:
    """products of two singular moduli that are polynomials of degree <= --degbound"""
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
    """singular units among all orders with |D| <= --dbound"""
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


def cmd_verify(cfg: RunConfig, args) -> int:
    """run every verification suite for q up to --dbound"""
    ok_all = True
    for c in run_all(cfg.base(), cfg.d_bound):
        head = f"{'PASS' if c['ok'] else 'FAIL'} {c['name']}"
        if "unchecked" in c:  # a claim of the suite that no case below --dbound tested
            head += f" ({c['unchecked']})"
        extra = {k: v for k, v in c.items() if k not in ("name", "ok", "unchecked")}
        print(f"{head}: {json.dumps(extra, sort_keys=True, default=str)}")
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
    target.add_argument(
        "--dbound", type=int, default=d(0), help="discriminant size bound |D| for the sweeps (0 or unset: q^6)"
    )
    target.add_argument(
        "--degbound", type=int, default=d(0), help="product degree bound for search-andre-oort (0 or unset: q^2 - 1)"
    )
    target.add_argument(
        "--output", choices=["tsv", "json"], default=d("json"), help="report format of enumerate and the two searches"
    )
    target.add_argument("--allow-large-q", action="store_true", default=d(False), help="lift the q <= 16 guard")


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as bad input (exit 3), not argparse's exit 2."""

    def error(self, message):
        raise BadInputError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="drinfeld-cm",
        description="Exact arithmetic for rank-2 Drinfeld modules with complex multiplication.",
    )
    _global_flags(ap, suppress=False)
    sp = ap.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        sub = sp.add_parser(name, help=cmd.__doc__)
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
    try:
        args = _parser.parse_args(argv)
        p, r = _factor_prime_power(args.q)
        if args.q > MAX_Q_GUARD and not args.allow_large_q:
            raise BadInputError(f"q = {args.q} exceeds the desk-scale guard (use --allow-large-q)")
        if min(args.dbound, args.degbound) < 0:
            raise BadInputError("--dbound and --degbound take a size >= 0 (0 for the default)")
        modulus = None
        if args.modulus:
            try:
                modulus = tuple(int(x) for x in args.modulus.strip("[]").split(","))
            except ValueError:
                raise BadInputError(f"--modulus {args.modulus!r} is not a list of integer codes") from None
        cfg = RunConfig(
            p=p,
            r=r,
            d_bound=args.dbound if args.dbound > 0 else args.q**6,
            deg_bound=args.degbound,
            output=args.output,
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

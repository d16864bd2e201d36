"""Regenerate the reference answers under perfbench/reference/.

    python3 perfbench/make_reference.py [--only sweep|queries|lemmas]

Run it only on a commit whose answers are trusted: every benchmark op is
checked against these files, and a mismatch counts as a failed op.
"""

from __future__ import annotations

import argparse
import gzip
import json

import workloads as wl


def _write(name: str, obj) -> None:
    wl.REFERENCE.mkdir(exist_ok=True)
    path = wl.REFERENCE / f"{name}.json.gz"
    # mtime=0 keeps the file byte-identical across regenerations
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=0).encode())
    print(f"wrote {path.name}")


def make_sweep() -> dict:
    return {wl.order_key(o): wl.run_sweep_op(o) for o in wl.sweep_orders(0)}


def make_queries() -> dict:
    from drinfeld_cm import cli

    out = {}
    for q, order in wl.query_pool():
        for cmd, _ in wl.QUERY_MIX:
            argv = [cmd] + wl.order_argv(q, order)
            code, stdout = wl.run_cli(argv, cli.main)
            if code != 0:
                raise SystemExit(f"{argv} exited with {code}")
            out[" ".join(argv)] = wl.canonical_output(stdout)
    return out


def make_lemmas() -> dict:
    out = {}
    for size, dims in wl.LEMMA_SIZES.items():
        got = {count_key: run() for _, run, count_key in wl.lemma_suites(size)}
        out[size] = {
            "dims": list(dims),
            "ok": all(r["ok"] for r in got.values()),
            **{k: r[k] for k, r in got.items()},
        }
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--only", choices=["sweep", "queries", "lemmas"])
    args = ap.parse_args()
    wl.import_package()
    if args.only in (None, "lemmas"):
        _write("lemmas", make_lemmas())
    if args.only in (None, "sweep"):
        _write("sweep", make_sweep())
    if args.only in (None, "queries"):
        _write("queries", make_queries())


if __name__ == "__main__":
    main()

"""Command-line front end.

One invocation, one subcommand, one single-line JSON envelope on stdout
(`--pretty` renders the same envelope as key/value lines).  Exit codes:
0 success, 1 domain error (machine-readable code in the envelope, message
on stderr), 2 usage error.  All results are produced by library payload
functions; no domain logic lives here.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .errors import CacheIoError, ExceptioError
from .goodsets import min_good_size, search_payload
from .intpoly import factorisation_pattern, parse_factors, parse_poly, poly_text, product_of, reduce_mod
from .kummer import (
    consecutive_products,
    kummer_payload,
    make_prime_set,
    make_radicand_set,
    predicted_exceptional,
)
from .permgroup import group_payload, parse_group_file
from .primescan import (
    ScanCache,
    exceptional_verdict,
    intersective_screen,
    report_payload,
)
from .quadcomplete import candidate_payload, cubic_resolvent_completion, find_intersective_d

DEFAULT_CACHE_DIR = ".exceptio-cache"
CACHE_ENV_VAR = "EXCEPTIO_CACHE_DIR"


def _int_at_least(minimum: int):
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}")
        return value

    return convert


def _int_list(text: str) -> list[int]:
    if not text.strip():
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated integer list") from None


def _resolve_cache_dir(args) -> str:
    if args.cache_dir is not None:
        return args.cache_dir
    return os.environ.get(CACHE_ENV_VAR, DEFAULT_CACHE_DIR)


def _scan_with_cache(args):
    F = parse_factors(args.poly)
    cache = ScanCache(_resolve_cache_dir(args))
    report = cache.scan_cached(F, args.limit)
    return F, report


def _cmd_scan(args):
    F, report = _scan_with_cache(args)
    verdict = exceptional_verdict(F, args.limit, report=report)
    return report_payload(report, verdict)


def _cmd_pattern(args):
    F = parse_factors(args.poly)
    pattern = factorisation_pattern(reduce_mod(F.product, args.p))
    return {"p": args.p, "pattern": list(pattern.degrees)}


def _cmd_density(args):
    _, report = _scan_with_cache(args)
    return {"density": str(report.density_estimate)}


def _cmd_group(args):
    try:
        with open(args.group_file, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise CacheIoError(f"cannot read group file: {exc}")
    return group_payload(parse_group_file(text))


def _cmd_kummer(args):
    if args.primes is not None:
        L = make_prime_set(args.primes)
        B = consecutive_products(L, args.p)
        predicted = predicted_exceptional(L, args.p)
    else:
        B = make_radicand_set(args.p, args.radicands)
        predicted = None
    return kummer_payload(B, predicted)


def _cmd_goodsets(args):
    budget = args.budget if args.budget is not None else 2**args.n - 1
    return search_payload(min_good_size(args.p, args.n, budget))


def _cmd_complete(args):
    h = parse_poly(args.poly)
    g = cubic_resolvent_completion(h)
    combined = product_of([g, h])
    cache = ScanCache(_resolve_cache_dir(args))
    report = cache.scan_cached(combined, args.limit)
    verdict = exceptional_verdict(combined, args.limit, report=report)
    return {"quadratic": poly_text(g), "report": report_payload(report, verdict)}


def _cmd_complete_d(args):
    return candidate_payload(find_intersective_d(args.bad, args.bound))


def _cmd_screen(args):
    F = parse_factors(args.poly)
    return {"failing_modulus": intersective_screen(F, args.bound)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exceptio",
        description="Decide, certify, construct and measure exceptional polynomials.",
    )
    parser.add_argument("--version", action="version", version=f"exceptio {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--cache-dir", dest="cache_dir", default=None)
        p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("scan", help="scan primes up to a limit for roots")
    p.add_argument("--poly", required=True)
    p.add_argument("--limit", type=_int_at_least(2), required=True)
    common(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("verdict", help="scan and classify exceptionality")
    p.add_argument("--poly", required=True)
    p.add_argument("--limit", type=_int_at_least(2), required=True)
    common(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("pattern", help="factorisation pattern of the product mod p")
    p.add_argument("--poly", required=True)
    p.add_argument("--p", type=_int_at_least(2), required=True)
    common(p)
    p.set_defaults(func=_cmd_pattern)

    p = sub.add_parser("density", help="empirical root density over scanned primes")
    p.add_argument("--poly", required=True)
    p.add_argument("--limit", type=_int_at_least(2), required=True)
    common(p)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("group", help="coverage, density and completion data of a group")
    p.add_argument("--group-file", dest="group_file", required=True)
    common(p)
    p.set_defaults(func=_cmd_group)

    p = sub.add_parser("kummer", help="exact exceptionality of an x^p - b family")
    p.add_argument("--p", type=_int_at_least(2), required=True)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--primes", type=_int_list)
    which.add_argument("--radicands", type=_int_list)
    common(p)
    p.set_defaults(func=_cmd_kummer)

    p = sub.add_parser("goodsets", help="minimal covering sets of subset-sum forms")
    p.add_argument("--p", type=_int_at_least(2), required=True)
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--budget", type=_int_at_least(1), default=None)
    common(p)
    p.set_defaults(func=_cmd_goodsets)

    p = sub.add_parser("complete", help="resolvent completion of a cubic")
    p.add_argument("--poly", required=True)
    p.add_argument("--limit", type=_int_at_least(2), default=100_000)
    common(p)
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("complete-d", help="find a completing discriminant")
    p.add_argument("--bad", type=_int_list, default=[])
    p.add_argument("--bound", type=_int_at_least(2), required=True)
    common(p)
    p.set_defaults(func=_cmd_complete_d)

    p = sub.add_parser("intersective-screen", help="smallest modulus without a root")
    p.add_argument("--poly", required=True)
    p.add_argument("--bound", type=_int_at_least(2), required=True)
    common(p)
    p.set_defaults(func=_cmd_screen)

    return parser


def _echo_inputs(args) -> dict:
    skip = {"func", "pretty", "subcommand"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def _render_pretty(envelope: dict) -> str:
    lines = [f"exceptio {envelope['version']} :: {envelope['subcommand']}"]
    for key, value in envelope["inputs"].items():
        lines.append(f"  in  {key} = {value}")
    body = envelope.get("result", envelope.get("error"))
    for key, value in body.items():
        lines.append(f"  out {key} = {json.dumps(value)}")
    lines.append(f"  took {envelope['elapsed_ms']} ms")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.monotonic()
    envelope = {
        "version": __version__,
        "subcommand": args.subcommand,
        "inputs": _echo_inputs(args),
    }
    try:
        envelope["result"] = args.func(args)
        code = 0
    except ExceptioError as exc:
        envelope["error"] = {"code": exc.code, "message": str(exc)}
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    envelope["elapsed_ms"] = int((time.monotonic() - started) * 1000)
    if args.pretty:
        print(_render_pretty(envelope))
    else:
        print(json.dumps(envelope, separators=(",", ":")))
    return code


if __name__ == "__main__":
    sys.exit(main())

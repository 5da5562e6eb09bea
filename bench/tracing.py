"""Spans around exceptio's public functions, recorded from outside the library.

`Tracer.install` replaces each target function in every loaded exceptio
module namespace that binds it (``primescan`` imports ``has_integer_root`` by
name, so patching ``intpoly`` alone would miss those calls) and methods on
their class.  Spans stay in memory as ``[key, start, end, parent, attrs]``
lists; `layer_metrics` turns them into the per-layer figures.

A key names the layer metric a span feeds.  While a span of some key is open,
nested calls under the same key record nothing, so ``parse_factors`` calling
``parse_poly`` counts once.
"""

from __future__ import annotations

import sys
import time
from bisect import bisect_right

# (module, attribute or Class.method, key)
TARGETS = (
    ("exceptio.primescan", "scan", "primescan.scan"),
    ("exceptio.primescan", "ScanCache.scan_cached", "primescan.scan"),
    ("exceptio.primescan", "ScanCache.load", "primescan.cache.load"),
    ("exceptio.primescan", "ScanCache.append", "primescan.cache.append"),
    ("exceptio.primescan", "sieve_primes", "primescan.sieve"),
    ("exceptio.primescan", "exceptional_verdict", "primescan.verdict"),
    ("exceptio.primescan", "intersective_screen", "primescan.screen"),
    ("exceptio.intpoly", "parse_factors", "intpoly.parse"),
    ("exceptio.intpoly", "parse_poly", "intpoly.parse"),
    ("exceptio.intpoly", "ramified_prime_bound", "intpoly.delta"),
    ("exceptio.intpoly", "has_integer_root", "intpoly.integer_root"),
    ("exceptio.intpoly", "factorisation_pattern", "intpoly.pattern"),
    ("exceptio.kummer", "is_exceptional_exact", "kummer.exact"),
    ("exceptio.kummer", "is_exceptional_full", "kummer.full"),
    ("exceptio.kummer", "make_radicand_set", "kummer.radicand_set"),
    ("exceptio.kummer", "consecutive_products", "kummer.radicand_set"),
    ("exceptio.goodsets", "is_good", "goodsets.is_good"),
    ("exceptio.goodsets", "min_good_size", "goodsets.search"),
    ("exceptio.goodsets", "min_over_n", "goodsets.search"),
    ("exceptio.permgroup", "generate_group", "permgroup.closure"),
    ("exceptio.permgroup", "all_transitive_subgroups", "permgroup.transitive_subgroups"),
    ("exceptio.permgroup", "group_payload", "permgroup.payload"),
    ("exceptio.quadcomplete", "find_intersective_d", "quadcomplete.complete_d"),
    ("exceptio.quadcomplete", "cubic_resolvent_completion", "quadcomplete.resolvent"),
    ("exceptio.nt", "factorize", "nt.factorize"),
)

CLI_COMMANDS = (
    "_cmd_scan", "_cmd_pattern", "_cmd_density", "_cmd_group", "_cmd_kummer",
    "_cmd_goodsets", "_cmd_complete", "_cmd_complete_d", "_cmd_screen",
)

# Shapes with a per-prime cost of their own.
SHAPES = ("binomial", "deg2", "deg3", "deg4", "deg5", "deg6", "product")

CACHE_OUTCOMES = ("hit", "extend", "miss", "corrupt_reset")


def shape_of(F) -> str:
    """binomial when every factor is x^n - c, deg<n> for one other factor,
    product otherwise."""
    factors = F.factors
    if all(not any(f.coeffs[1:-1]) for f in factors):
        return "binomial"
    if len(factors) == 1:
        return f"deg{factors[0].degree}"
    return "product"


def _rank(digits, base: int) -> int:
    value = 0
    for d in digits:
        value = value * base + d
    return value


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, key: str, fn, on_exit=None, cpu: bool = False, on_enter=None):
        spans, stack, open_keys = self.spans, self._stack, self._open
        clock, cpu_clock = time.perf_counter, time.process_time

        def traced(*args, **kwargs):
            if key in open_keys:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [key, 0.0, 0.0, stack[-1] if stack else -1, on_enter(args) if on_enter else {}]
            spans.append(span)
            stack.append(index)
            open_keys.add(key)
            cpu0 = cpu_clock() if cpu else 0.0
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4]["error"] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                if cpu:
                    span[4]["cpu"] = cpu_clock() - cpu0
                stack.pop()
                open_keys.discard(key)
            if on_exit is not None:
                span[4].update(on_exit(args, result))
            return result

        return traced

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every target in every exceptio namespace that binds it."""
        modules = [m for name, m in list(sys.modules.items()) if name.startswith("exceptio") and m]
        exits = _exit_hooks()
        enters = {
            "scan": lambda args: {"shape": shape_of(args[0])},
            "ScanCache.scan_cached": lambda args: {"shape": shape_of(args[1]), "limit": args[2]},
        }
        for module_name, attr, key in TARGETS:
            module = sys.modules[module_name]
            hooks = {"on_exit": exits.get(attr), "on_enter": enters.get(attr), "cpu": key == "primescan.scan"}
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self.wrap(key, getattr(cls, meth), **hooks))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(key, original, **hooks)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, wrapped)
        cli = sys.modules.get("exceptio.cli")
        if cli is not None:
            for name in CLI_COMMANDS:
                self._patch(cli, name, self.wrap("cli.command", getattr(cli, name)))

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._patches):
            setattr(owner, name, value)
        self._patches.clear()


def _exit_hooks():
    """Attribute extractors, run after a span closes (outside its time)."""

    def load_hook(args, entries):
        cache, key = args
        path = cache.path_for(key)
        return {"limit": entries[-1][0] if entries else 0,
                "bytes": path.stat().st_size if path.exists() else 0}

    def append_hook(args, _):
        return {"bytes": len(f"{args[2]}\t{','.join(str(p) for p in args[3])}\n")}

    def exact_hook(args, result):
        B, (exact, witness) = args[0], result
        return {"maps": B.p ** len(B.support) if exact else _rank(witness.twists, B.p) + 1}

    def is_good_hook(args, result):
        T, (good, point) = args[0], result
        return {"points": T.p**T.n if good else _rank(point, T.p) + 1}

    def screen_hook(args, result):
        return {"moduli": (result if result is not None else args[1]) - 1}

    return {
        "scan": lambda args, r: {"primes": r.primes_scanned},
        "ScanCache.load": load_hook,
        "ScanCache.append": append_hook,
        "is_exceptional_exact": exact_hook,
        "is_good": is_good_hook,
        "min_good_size": lambda args, r: {"nodes": r.nodes_explored},
        "min_over_n": lambda args, r: {"nodes": r.nodes_explored},
        "generate_group": lambda args, G: {"elements": G.order},
        "all_transitive_subgroups": lambda args, gs: {"elements": sum(G.order for G in gs)},
        "intersective_screen": screen_hook,
    }


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

# Layer keys reported as inclusive milliseconds per pass.
MS_KEYS = {
    "primescan.sieve": "primescan.sieve.ms",
    "primescan.cache.load": "primescan.cache.load_ms",
    "primescan.cache.append": "primescan.cache.append_ms",
    "primescan.screen": "primescan.screen.ms",
    "intpoly.parse": "intpoly.parse.ms",
    "intpoly.delta": "intpoly.delta.ms",
    "intpoly.integer_root": "intpoly.integer_root.ms",
    "intpoly.pattern": "intpoly.pattern.ms",
    "kummer.exact": "kummer.exact.ms",
    "kummer.full": "kummer.full.ms",
    "kummer.radicand_set": "kummer.radicand_set.ms",
    "goodsets.is_good": "goodsets.is_good.ms",
    "goodsets.search": "goodsets.search.ms",
    "permgroup.closure": "permgroup.closure.ms",
    "permgroup.transitive_subgroups": "permgroup.transitive_subgroups.ms",
    "permgroup.payload": "permgroup.payload.ms",
    "quadcomplete.complete_d": "quadcomplete.complete_d.ms",
    "quadcomplete.resolvent": "quadcomplete.resolvent.ms",
    "nt.factorize": "nt.factorize.ms",
}

# Counters summed from span attributes: (span key, attribute) -> metric.
COUNT_ATTRS = {
    ("primescan.cache.load", "bytes"): "primescan.cache.bytes_read",
    ("primescan.cache.append", "bytes"): "primescan.cache.bytes_written",
    ("primescan.screen", "moduli"): "primescan.screen.moduli_tried",
    ("kummer.exact", "maps"): "kummer.exact.maps_enumerated",
    ("goodsets.is_good", "points"): "goodsets.points_checked",
    ("goodsets.search", "nodes"): "goodsets.nodes_explored",
    ("permgroup.closure", "elements"): "permgroup.elements",
    ("permgroup.transitive_subgroups", "elements"): "permgroup.elements",
}


def accumulate(spans, sieve, acc: dict) -> None:
    """Add one batch of spans into the running sums `acc`.

    `sieve` is the untraced ``sieve_primes``, used to count the primes a
    cached scan actually tested (those above the limit it loaded)."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        children.setdefault(span[3], []).append(i)

    def add(name, value):
        acc[name] = acc.get(name, 0) + value

    for i, (key, start, end, parent, attrs) in enumerate(spans):
        ms = (end - start) * 1000
        if parent == -1:
            add("covered_ms", ms)
        if key in MS_KEYS:
            add(MS_KEYS[key], ms)
        for (span_key, attr), name in COUNT_ATTRS.items():
            if span_key == key and attr in attrs:
                add(name, attrs[attr])
        if key == "primescan.sieve":
            add("primescan.sieve.calls", 1)
        elif key == "intpoly.integer_root":
            add("intpoly.integer_root.calls", 1)
        elif key == "primescan.scan" and "error" not in attrs:
            kids = [spans[j] for j in children.get(i, ())]
            self_ms = ms - sum((k[2] - k[1]) * 1000 for k in kids)
            primes = attrs.get("primes")
            if primes is None:
                primes = _cached_scan_primes(attrs, kids, sieve, add)
            add("primescan.root_test.self_ms", self_ms)
            if primes:  # a cache hit tests no primes; its self time is truncation
                add(f"self_ms.{attrs['shape']}", self_ms)
                add(f"primes.{attrs['shape']}", primes)
            add("primescan.primes_tested", primes)
            add("scan_cpu_s", attrs.get("cpu", 0.0))
            add("scan_wall_s", end - start)


def _cached_scan_primes(attrs, kids, sieve, add) -> int:
    """Classify one ScanCache.scan_cached call and count the primes it tested."""
    limit = attrs["limit"]
    load = next(k for k in kids if k[0] == "primescan.cache.load")
    if "error" in load[4]:
        outcome, base = "corrupt_reset", 0
    elif load[4]["limit"] >= limit:
        outcome, base = "hit", limit
    elif load[4]["limit"] > 0:
        outcome, base = "extend", load[4]["limit"]
    else:
        outcome, base = "miss", 0
    add(f"primescan.cache.{outcome}", 1)
    primes = sieve(limit).primes
    return len(primes) - bisect_right(primes, base)


def layer_metrics(acc: dict, passes: int) -> dict:
    """Per-pass layer figures from the sums of `passes` traced passes."""
    out = {name: acc.get(name, 0) / passes for name in sorted(set(MS_KEYS.values()) | set(COUNT_ATTRS.values()))}
    for name in ("primescan.root_test.self_ms", "primescan.primes_tested", "primescan.sieve.calls",
                 "intpoly.integer_root.calls") + tuple(f"primescan.cache.{o}" for o in CACHE_OUTCOMES):
        out[name] = acc.get(name, 0) / passes
    for shape in SHAPES:
        primes = acc.get(f"primes.{shape}", 0)
        out[f"primescan.root_test.ns_per_prime.{shape}"] = (
            acc.get(f"self_ms.{shape}", 0) * 1e6 / primes if primes else 0.0
        )
    wall = acc.get("scan_wall_s", 0)
    out["primescan.scan.cpu_util"] = acc.get("scan_cpu_s", 0) / wall if wall else 0.0
    lookups = sum(acc.get(f"primescan.cache.{o}", 0) for o in CACHE_OUTCOMES)
    out["primescan.cache.hit_ratio"] = acc.get("primescan.cache.hit", 0) / lookups if lookups else 0.0
    return out

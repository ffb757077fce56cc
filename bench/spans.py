"""Span tracer for one traced ``symfock`` command.

Run as a shim in place of ``python -m symfock.cli``:

    python3 bench/spans.py OUT CMD_ID ARGS...

It wraps each layer's public functions from outside the package, runs
``symfock.cli.main(ARGS)`` in this process, and at exit writes the spans
to ``OUT.spans`` and a JSON header (span names, call counters and a census
of the caches) to ``OUT.json``.  The exit code is the command's own.

A span is one call of a wrapped function: name, start, end, parent span.
All spans of one process share the command id stored in the header.
Spans are kept in memory as flat int64 records and written once at exit.
Hot arithmetic (``RatFun`` add/mul/eq, ``multiplicities``, ``poly_gcd``)
is only counted, never spanned, to keep the tracing overhead small.

Modules import each other's functions by name, so every wrapper replaces
the binding in every loaded ``symfock`` module that holds the original.
A hook whose target no longer exists is skipped and listed as missing.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

FIELDS = 4  # name id, start ns, end ns, parent span index (-1 at the root)

# (module, attribute, span name); "Class.method" patches the class
SPANNED = (
    ("symfock.cli", "main", "cli.main"),
    ("symfock.cli", "_emit", "cli.emit"),
    ("symfock.verify", "_execute_item", "verify.item"),
    ("symfock.fock", "check_mode_identity", "verify.check_mode_identity"),
    ("symfock.fock", "mode_apply", "fock.mode_apply"),
    ("symfock.fock", "apply_deriv_op", "fock.apply_deriv_op"),
    ("symfock.fock", "_normal_ordered_pair", "fock.normal_ordered_pair"),
    ("symfock.symfunc", "linear_combination", "symfunc.linear_combination"),
    ("symfock.symfunc", "SymFunc.__mul__", "symfunc.mul"),
    ("symfock.symfunc", "perp_apply", "symfunc.perp_apply"),
    ("symfock.ratfun", "RatFun._reduce", "ratfun.reduce"),
    ("symfock.bases", "_det_entries", "bases.det"),
    ("symfock.bases", "schur_oracle", "bases.oracle"),
    ("symfock.bases", "hall_littlewood_oracle", "bases.oracle"),
    ("symfock.vertex", "basis_via_vertex", "vertex.basis_via_vertex"),
    ("symfock.vertex", "generating_coefficient_direct", "vertex.generating"),
    ("symfock.kp", "omega_apply", "kp.omega_apply"),
    ("symfock.kp", "TensorState.add_product", "kp.add_product"),
)

COUNTED = (
    ("symfock.ratfun", "RatFun.__add__", "ratfun.add"),
    ("symfock.ratfun", "RatFun.__mul__", "ratfun.mul"),
    ("symfock.ratfun", "RatFun.__eq__", "ratfun.eq"),
    ("symfock.ratfun", "poly_gcd", "ratfun.poly_gcd"),
    ("symfock.partitions", "multiplicities", "partitions.multiplicities"),
)

# the mode cache is split into hit and miss spans by whether the call grew it
MODE_HIT = "fock.mode_on_basis.hit"
MODE_MISS = "fock.mode_on_basis.miss"


class Tracer:
    """In-memory span recorder with a call stack and plain counters."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")
        self.stack = [-1]
        self.counts: dict[str, list[int]] = {}
        self.limb_bits = 0  # LIMB_BITS of the packed arithmetic, once installed
        self.max_limb_bits = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def spanned(self, name: str, fn):
        nid = self.name_id(name)
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans) // FIELDS
            spans.extend((nid, clock(), 0, stack[-1]))
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx * FIELDS + 2] = clock()

        return wrapper

    def counted(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def mode_on_basis(self, fn):
        hit, miss = self.name_id(MODE_HIT), self.name_id(MODE_MISS)
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def wrapper(kernel, *args):
            cache = getattr(kernel, "_modes", ())
            before = len(cache)
            idx = len(spans) // FIELDS
            spans.extend((hit, clock(), 0, stack[-1]))
            stack.append(idx)
            try:
                return fn(kernel, *args)
            finally:
                stack.pop()
                spans[idx * FIELDS + 2] = clock()
                if len(cache) > before:
                    spans[idx * FIELDS] = miss

        return wrapper

    def limb_scan(self, fn):
        @functools.wraps(fn)
        def wrapper(r, *args, **kwargs):
            out = fn(r, *args, **kwargs)
            self.max_limb_bits = max(self.max_limb_bits, ratfun_limb_bits(r, self.limb_bits))
            return out

        return wrapper


def self_times(names: list[str], spans) -> dict[str, dict]:
    """Per span name: calls, inclusive ns, self ns and the list of durations.

    Self time is a span's duration minus the durations of its direct
    children; one thread runs each process, so children never overlap.
    """
    n = len(spans) // FIELDS
    child = [0] * n
    for i in range(n):
        parent = spans[i * FIELDS + 3]
        if parent >= 0:
            child[parent] += spans[i * FIELDS + 2] - spans[i * FIELDS + 1]
    out: dict[str, dict] = {}
    for i in range(n):
        name = names[spans[i * FIELDS]]
        dur = spans[i * FIELDS + 2] - spans[i * FIELDS + 1]
        row = out.get(name)
        if row is None:
            row = out[name] = {"calls": 0, "ns": 0, "self_ns": 0, "durations": []}
        row["calls"] += 1
        row["ns"] += dur
        row["self_ns"] += dur - child[i]
        row["durations"].append(dur)
    return out


def digit_bits(n: int, limb_bits: int) -> int:
    """Largest bit-length among the balanced base-2**limb_bits digits of n."""
    base = 1 << limb_bits
    mask, half = base - 1, base >> 1
    best = 0
    while n:
        d = n & mask
        if d >= half:
            d -= base
        best = max(best, abs(d).bit_length())
        n = (n - d) >> limb_bits
    return best


def ratfun_limb_bits(r, limb_bits: int) -> int:
    return max(digit_bits(r.ne, limb_bits), digit_bits(r.de, limb_bits))


def _symfunc_limb_bits(f, limb_bits: int) -> int:
    return max((ratfun_limb_bits(c, limb_bits) for c in f.terms.values()), default=0)


def cache_census(fock, limb_bits: int) -> dict:
    """Sizes of the mode caches and the largest packed digit they hold.

    A mode-cache key (j, m, la) acts through shift = j + eps*m + 1 and la
    only, so ``distinct`` counts the (shift, la) pairs behind the entries;
    a cache already keyed by (shift, la) counts each key once.
    """
    kernels = {}
    bits = 0
    for kernel in getattr(fock, "KERNELS", {}).values():
        modes = getattr(kernel, "_modes", {})
        distinct = {
            (key[0] + kernel.eps * key[1] + 1, key[2]) if len(key) == 3 else key
            for key in modes
        }
        kernels[kernel.name] = {"entries": len(modes), "distinct": len(distinct)}
        for v in modes.values():
            bits = max(bits, _symfunc_limb_bits(v.body, limb_bits))
        for f in getattr(kernel, "_mult", ()):
            bits = max(bits, _symfunc_limb_bits(f, limb_bits))
    caches = {}
    for name in ("_heis_cache", "_vir_cache"):
        cache = getattr(fock, name, {})
        caches[name.strip("_")] = len(cache)
        for v in cache.values():
            bits = max(bits, _symfunc_limb_bits(v.body, limb_bits))
    return {"kernels": kernels, **caches, "max_limb_bits": bits}


def _patch(modules, owner, attr: str, make) -> bool:
    """Replace owner.attr by make(original) everywhere it is bound."""
    cls_name, _, meth = attr.rpartition(".")
    if cls_name:
        cls = getattr(owner, cls_name, None)
        orig = cls.__dict__.get(meth) if cls is not None else None
        if orig is None:
            return False
        setattr(cls, meth, make(orig))
        return True
    orig = getattr(owner, attr, None)
    if orig is None:
        return False
    new = make(orig)
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, new)
    return True


def install(tracer: Tracer) -> list[str]:
    """Wrap every hook in the loaded symfock modules; return the missing ones."""
    import importlib

    modules = [importlib.import_module(m) for m in (
        "symfock", "symfock.partitions", "symfock.ratfun", "symfock.symfunc", "symfock.bases",
        "symfock.fock", "symfock.vertex", "symfock.kp", "symfock.verify", "symfock.cli",
    )]
    by_name = {m.__name__: m for m in modules}
    missing = []

    def hook(module, attr, make):
        if not _patch(modules, by_name[module], attr, make):
            missing.append(f"{module}.{attr}")

    for module, attr, name in SPANNED:
        hook(module, attr, functools.partial(tracer.spanned, name))
    for module, attr, name in COUNTED:
        hook(module, attr, functools.partial(tracer.counted, name))
    hook("symfock.fock", "VertexKernel.mode_on_basis", tracer.mode_on_basis)
    tracer.limb_bits = getattr(by_name["symfock.ratfun"], "LIMB_BITS", 0)
    if tracer.limb_bits:
        hook("symfock.ratfun", "rat_to_json", tracer.limb_scan)
    return missing


def main(argv: list[str]) -> int:
    out, cmd_id, cli_args = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer()
    missing = install(tracer)
    import symfock.cli
    import symfock.fock

    code = symfock.cli.main(cli_args)
    sys.stdout.flush()
    census = cache_census(symfock.fock, tracer.limb_bits) if tracer.limb_bits else {}
    census["max_limb_bits"] = max(census.get("max_limb_bits", 0), tracer.max_limb_bits)
    with open(out + ".spans", "wb") as fh:
        tracer.spans.tofile(fh)
    header = {
        "command": cmd_id,
        "argv": cli_args,
        "exit": code,
        "names": tracer.names,
        "counts": {k: v[0] for k, v in tracer.counts.items()},
        "census": census,
        "missing_hooks": missing,
    }
    with open(out + ".json", "w", encoding="utf-8") as fh:
        json.dump(header, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Named verification sweeps over the operator identities.

Every suite expands into a deterministic list of independent items; an
item checks one identity instance (one mode pair, one partition, ...)
over the requested window of basis vectors and reports ok/fail with a
JSON witness on failure.  Items are self-contained and picklable, so
sweeps parallelise over processes; results are always reduced in the
fixed submission order, making output independent of worker count.

The classical fermion suite is the t = 0 case of the twisted one: at
t = 0 the twisted kernels are the classical ones, and both suites check,
for a kernel pair (K+, K-) and a parameter t,

    {K[a], K[b]} - t K[a-1] K[b+1] - t K[b-1] K[a+1] = 0            (pp, mm)
    {K+[a], K-[b]} - t K+[a+1] K-[b-1] - t K-[b+1] K+[a-1]
        = (1-t)**2 delta_{a+b,-1}                                      (pm)

with (fermion+, fermion-, 0) and (twisted+, twisted-, t).  At t = 0 these
are the classical anticommutators and the t-shifted terms are never built.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from typing import Callable, Iterator

from .bases import (
    complete_h,
    dual_schur,
    elementary_e,
    expand_in_variables,
    hall_littlewood_oracle,
    schur,
    schur_oracle,
)
from .fock import (
    FERMION_MINUS,
    FERMION_PLUS,
    TWISTED_MINUS,
    TWISTED_PLUS,
    DEFORMED_MINUS,
    DEFORMED_PLUS,
    FockVector,
    ModeExpression,
    Verdict,
    check_mode_identity,
    corrupted_kernel,
    heisenberg_mode,
    mode_apply,
)
from .partitions import partitions_up_to, weight
from .ratfun import RF_ONE, RF_T, RF_ZERO, RatFun, rf_inv_one_minus_t_pow, rf_one_minus_t_pow
from .symfunc import SymFunc, scalar_product
from .vertex import basis_via_vertex, crosscheck_corollaries, generating_coefficient_direct

# (plus, minus, t) of the anticommutator suites, the only ones --corrupt applies to
ANTICOMMUTATOR_KERNELS = {
    "fermion": (FERMION_PLUS, FERMION_MINUS, RF_ZERO),
    "twisted-fermion": (TWISTED_PLUS, TWISTED_MINUS, RF_T),
}

# one corrupted copy per kernel, so its mode cache survives across items
_corrupted = cache(corrupted_kernel)


@dataclass(frozen=True)
class SweepOptions:
    max_degree: int
    max_mode: int
    charges: tuple[int, ...] = (-2, -1, 0, 1, 2)
    betas: tuple[Fraction, ...] = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2))
    corrupt: bool = False


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    ok: bool
    witness: dict | None = None


Item = tuple  # (suite, params, opts)


# ---------------------------------------------------------------------------
# item executors, one per suite


def _run_commutation(params, opts: SweepOptions) -> CheckResult:
    rel, a, b = params
    h, e = complete_h, elementary_e
    pairs = {
        "ee": (e, e),
        "hh": (h, h),
        "he": (h, e),
        "eh": (e, h),
    }
    low, up = pairs[rel]
    lhs = ModeExpression.single(("perp", low(a)), ("mul", up(b)))
    if rel in ("ee", "hh"):
        if a >= 1 and b >= 1:
            lhs = lhs - ModeExpression.single(("perp", low(a - 1)), ("mul", up(b - 1)))
        rhs = ModeExpression.single(("mul", up(b)), ("perp", low(a)))
    else:
        rhs = ModeExpression.single(("mul", up(b)), ("perp", low(a)))
        if a >= 1 and b >= 1:
            rhs = rhs + ModeExpression.single(("mul", up(b - 1)), ("perp", low(a - 1)))
    verdict = check_mode_identity(lhs, rhs, opts.max_degree, (0,))
    return CheckResult(
        "commutation", f"{rel}[a={a},b={b}]", verdict.equal, verdict.witness_json()
    )


def _run_anticommutators(suite: str, params, opts: SweepOptions) -> CheckResult:
    """All anticommutators of one relation with a+b = d at once.

    With X[x] = K1[x] K2[d-x] v and Y[y] = K2[y] K1[d-y] v, the pair (a, b)
    reads {K1[a], K2[b]} = X[a] + Y[b] and its t-terms are X[a+e] + Y[b+e],
    so the compositions are built once per basis vector for the whole
    window, and their t-shifted neighbours only when t != 0.
    """
    rel, d = params
    plus, minus, t = ANTICOMMUTATOR_KERNELS[suite]
    if opts.corrupt:
        plus = _corrupted(plus)
    K1, K2, e = {"pp": (plus, plus, -1), "mm": (minus, minus, -1), "pm": (plus, minus, 1)}[rel]
    W = opts.max_mode
    window = range(max(-W, d - W), min(W, d + W) + 1)
    pairs = [(a, d - a) for a in window if rel == "pm" or a <= d - a]
    reach = 1 if t else 0
    shifts = range(window.start - reach, window.stop + reach)
    delta = (RF_ONE - t) * (RF_ONE - t) if rel == "pm" and d == -1 else RF_ZERO
    name = f"{rel}[a+b={d}]"
    for m in sorted(opts.charges):
        for la in partitions_up_to(opts.max_degree):
            v = FockVector(m, SymFunc.monomial(la))
            X = {x: mode_apply(K1, x, mode_apply(K2, d - x, v)) for x in shifts}
            Y = X if K1 is K2 else {y: mode_apply(K2, y, mode_apply(K1, d - y, v)) for y in shifts}
            want = v.scaled(delta)
            for a, b in pairs:
                got = X[a] + Y[b]
                if t:
                    got = got + (X[a + e] + Y[b + e]).scaled(-t)
                if got != want:
                    witness = Verdict(False, m, la, got, want).witness_json()
                    witness = {"relation": rel, "a": a, "b": b, **witness}
                    return CheckResult(suite, name, False, witness)
    return CheckResult(suite, name, True, None)


def _run_heisenberg(params, opts: SweepOptions) -> CheckResult:
    kind = params[0]
    if kind == "comm":
        _, j, k = params
        lhs = ModeExpression.single(("heis", j), ("heis", k)) - ModeExpression.single(
            ("heis", k), ("heis", j)
        )
        if j == -k:
            rhs = ModeExpression.single(("id",), coeff=RatFun.from_int(j))
        else:
            rhs = ModeExpression.zero()
        verdict = check_mode_identity(lhs, rhs, opts.max_degree, opts.charges)
        return CheckResult("heisenberg", f"comm[j={j},k={k}]", verdict.equal, verdict.witness_json())
    _, k = params
    # action: alpha_{-n} multiplies by p_n, alpha_n derives, alpha_0 reads charge
    for m in sorted(opts.charges):
        for la in partitions_up_to(opts.max_degree):
            v = FockVector(m, SymFunc.monomial(la))
            got = heisenberg_mode(k, v)
            if k < 0:
                want = FockVector(m, v.body.times_p(-k))
            elif k > 0:
                want = FockVector(m, v.body.diff_p(k).scaled(Fraction(k)))
            else:
                want = v.scaled(Fraction(m))
            if got != want:
                witness = Verdict(False, m, la, got, want).witness_json()
                return CheckResult("heisenberg", f"action[k={k}]", False, witness)
    return CheckResult("heisenberg", f"action[k={k}]", True, None)


def _run_twisted_heisenberg(params, opts: SweepOptions) -> CheckResult:
    _, j, k = params
    lhs = ModeExpression.single(("twisted", j), ("twisted", k)) - ModeExpression.single(
        ("twisted", k), ("twisted", j)
    )
    if j == -k:
        coeff = rf_inv_one_minus_t_pow(abs(j)).scale(Fraction(j))
        rhs = ModeExpression.single(("id",), coeff=coeff)
    else:
        rhs = ModeExpression.zero()
    verdict = check_mode_identity(lhs, rhs, opts.max_degree, opts.charges)
    return CheckResult(
        "twisted-heisenberg", f"comm[j={j},k={k}]", verdict.equal, verdict.witness_json()
    )


def _run_virasoro(params, opts: SweepOptions) -> CheckResult:
    beta, j, k = params
    c_beta = -12 * beta * beta + 12 * beta - 2
    lhs = ModeExpression.single(
        ("virasoro", beta, j), ("virasoro", beta, k)
    ) - ModeExpression.single(("virasoro", beta, k), ("virasoro", beta, j))
    rhs = ModeExpression.single(
        ("virasoro", beta, j + k), coeff=RatFun.from_fraction(Fraction(j - k))
    )
    if j == -k:
        central = Fraction(j**3 - j) * c_beta / 12
        rhs = rhs + ModeExpression.single(("id",), coeff=RatFun.from_fraction(central))
    verdict = check_mode_identity(lhs, rhs, opts.max_degree, opts.charges)
    return CheckResult(
        "virasoro", f"beta={beta}[j={j},k={k}]", verdict.equal, verdict.witness_json()
    )


def _run_kernel_factorization(params, opts: SweepOptions) -> CheckResult:
    kind, a = params
    if kind == "conj+" or kind == "conj-":
        deformed = DEFORMED_PLUS if kind == "conj+" else DEFORMED_MINUS
        plain = FERMION_PLUS if kind == "conj+" else FERMION_MINUS
        lhs = ModeExpression.single(("kernel", deformed, a), ("scale_p", rf_one_minus_t_pow))
        rhs = ModeExpression.single(("scale_p", rf_one_minus_t_pow), ("kernel", plain, a))
        verdict = check_mode_identity(lhs, rhs, opts.max_degree, opts.charges)
        return CheckResult(
            "kernel-factorization", f"{kind}[a={a}]", verdict.equal, verdict.witness_json()
        )
    if kind == "plus":
        # fermion+[a] = sum_s t^s h_s twisted+[a+s]
        lhs = ModeExpression.single(("kernel", FERMION_PLUS, a))
        s_max = opts.max_degree - min(opts.charges) - 1 - a
        inner = TWISTED_PLUS
    else:
        # twisted-[a] = sum_s t^s h_s fermion-[a+s]
        lhs = ModeExpression.single(("kernel", TWISTED_MINUS, a))
        s_max = opts.max_degree + max(opts.charges) - 1 - a
        inner = FERMION_MINUS
    rhs = ModeExpression.zero()
    ts = RatFun.from_int(1)
    for s in range(0, max(s_max, 0) + 1):
        term = ModeExpression.single(("mul", complete_h(s)), ("kernel", inner, a + s), coeff=ts)
        rhs = rhs + term
        ts = ts * RF_T
    verdict = check_mode_identity(lhs, rhs, opts.max_degree, opts.charges)
    return CheckResult(
        "kernel-factorization", f"{kind}[a={a}]", verdict.equal, verdict.witness_json()
    )


def _run_duality(params, opts: SweepOptions) -> CheckResult:
    la, mu = params
    value = scalar_product(dual_schur(la), schur(mu), deformed=True)
    want = RatFun.from_int(1 if la == mu else 0)
    ok = value == want
    witness = None
    if not ok:
        from .ratfun import rat_to_json

        witness = {"la": list(la), "mu": list(mu), "value": rat_to_json(value)}
    return CheckResult("duality", f"<S{list(la)},s{list(mu)}>_t", ok, witness)


def _run_bases_agreement(params, opts: SweepOptions) -> CheckResult:
    kind, la = params
    name = f"{kind}{list(la)}"
    from .symfunc import symfunc_to_json

    def fail(detail: dict) -> CheckResult:
        return CheckResult("bases-agreement", name, False, detail)

    if kind == "schur-routes":
        a = basis_via_vertex("schur", la)
        b = generating_coefficient_direct("schur", la)
        c = schur(la)
        if not (a == b == c):
            return fail({"vertex": symfunc_to_json(a), "generating": symfunc_to_json(b), "det": symfunc_to_json(c)})
    elif kind == "schur-oracle":
        n = max(weight(la), 1)
        if expand_in_variables(schur(la), n) != schur_oracle(la, n):
            return fail({"la": list(la), "n": n})
    elif kind == "hl-routes":
        a = basis_via_vertex("hall_littlewood", la)
        b = generating_coefficient_direct("hall_littlewood", la)
        if a != b:
            return fail({"vertex": symfunc_to_json(a), "generating": symfunc_to_json(b)})
    elif kind == "hl-oracle":
        n = max(weight(la), 1)
        a = basis_via_vertex("hall_littlewood", la)
        if expand_in_variables(a, n) != hall_littlewood_oracle(la, n):
            return fail({"la": list(la), "n": n})
    elif kind == "hl-t0":
        a = basis_via_vertex("hall_littlewood", la).specialize_t(0)
        if a != schur(la):
            return fail({"la": list(la)})
    elif kind == "dual-routes":
        a = basis_via_vertex("dual_schur", la)
        b = generating_coefficient_direct("dual_schur", la)
        c = dual_schur(la)
        d = schur(la).scale_p(rf_one_minus_t_pow)
        if not (a == b == c == d):
            return fail({"vertex": symfunc_to_json(a), "generating": symfunc_to_json(b), "det": symfunc_to_json(c), "subst": symfunc_to_json(d)})
    elif kind == "dual-t0":
        if dual_schur(la).specialize_t(0) != schur(la):
            return fail({"la": list(la)})
    else:
        raise ValueError(f"unknown agreement kind {kind!r}")
    return CheckResult("bases-agreement", name, True, None)


def _run_corollaries(params, opts: SweepOptions) -> CheckResult:
    (la,) = params
    verdict = crosscheck_corollaries(la)
    witness = None
    if not verdict.equal:
        witness = {
            "la": list(la),
            "hl_equal": verdict.hl_equal,
            "dual_equal": verdict.dual_equal,
        }
    return CheckResult("corollaries", f"products{list(la)}", verdict.equal, witness)


# ---------------------------------------------------------------------------
# suite item builders


def _items_commutation(opts: SweepOptions) -> list:
    return [
        ("commutation", (rel, a, b), opts)
        for rel in ("ee", "hh", "he", "eh")
        for a in range(0, opts.max_mode + 1)
        for b in range(0, opts.max_mode + 1)
    ]


def _items_anticommutators(suite: str, opts: SweepOptions) -> list:
    diagonals = range(-2 * opts.max_mode, 2 * opts.max_mode + 1)
    return [(suite, (rel, d), opts) for rel in ("pp", "mm", "pm") for d in diagonals]


def _items_heisenberg(opts: SweepOptions) -> list:
    window = range(-opts.max_mode, opts.max_mode + 1)
    items = [
        ("heisenberg", ("comm", j, k), opts)
        for j in window
        for k in window
        if j <= k
    ]
    items += [("heisenberg", ("action", k), opts) for k in window]
    return items


def _items_twisted_heisenberg(opts: SweepOptions) -> list:
    window = [j for j in range(-opts.max_mode, opts.max_mode + 1) if j != 0]
    return [
        ("twisted-heisenberg", ("comm", j, k), opts)
        for j in window
        for k in window
        if j <= k
    ]


def _items_virasoro(opts: SweepOptions) -> list:
    window = range(-opts.max_mode, opts.max_mode + 1)
    return [
        ("virasoro", (beta, j, k), opts)
        for beta in opts.betas
        for j in window
        for k in window
        if j <= k
    ]


def _items_kernel_factorization(opts: SweepOptions) -> list:
    window = range(-opts.max_mode, opts.max_mode + 1)
    items = [("kernel-factorization", (kind, a), opts) for kind in ("plus", "minus") for a in window]
    items += [("kernel-factorization", (kind, a), opts) for kind in ("conj+", "conj-") for a in window]
    return items


def _items_duality(opts: SweepOptions) -> list:
    items = []
    for w in range(0, opts.max_degree + 1):
        las = [la for la in partitions_up_to(opts.max_degree) if weight(la) == w]
        for la in las:
            for mu in las:
                items.append(("duality", (la, mu), opts))
    return items


def _items_bases_agreement(opts: SweepOptions) -> list:
    d = opts.max_degree
    items = []
    for la in partitions_up_to(d):
        items.append(("bases-agreement", ("schur-routes", la), opts))
    for la in partitions_up_to(min(d, 6)):
        if la:
            items.append(("bases-agreement", ("schur-oracle", la), opts))
    for la in partitions_up_to(min(d, 5)):
        items.append(("bases-agreement", ("hl-routes", la), opts))
        if la:
            items.append(("bases-agreement", ("hl-oracle", la), opts))
        items.append(("bases-agreement", ("hl-t0", la), opts))
    for la in partitions_up_to(min(d, 6)):
        items.append(("bases-agreement", ("dual-routes", la), opts))
        items.append(("bases-agreement", ("dual-t0", la), opts))
    return items


def _items_corollaries(opts: SweepOptions) -> list:
    return [("corollaries", (la,), opts) for la in partitions_up_to(opts.max_degree)]


_EXECUTORS: dict[str, Callable] = {
    "commutation": _run_commutation,
    "fermion": partial(_run_anticommutators, "fermion"),
    "twisted-fermion": partial(_run_anticommutators, "twisted-fermion"),
    "heisenberg": _run_heisenberg,
    "twisted-heisenberg": _run_twisted_heisenberg,
    "virasoro": _run_virasoro,
    "kernel-factorization": _run_kernel_factorization,
    "duality": _run_duality,
    "bases-agreement": _run_bases_agreement,
    "corollaries": _run_corollaries,
}

_BUILDERS: dict[str, Callable[[SweepOptions], list]] = {
    "commutation": _items_commutation,
    "fermion": partial(_items_anticommutators, "fermion"),
    "twisted-fermion": partial(_items_anticommutators, "twisted-fermion"),
    "heisenberg": _items_heisenberg,
    "twisted-heisenberg": _items_twisted_heisenberg,
    "virasoro": _items_virasoro,
    "kernel-factorization": _items_kernel_factorization,
    "duality": _items_duality,
    "bases-agreement": _items_bases_agreement,
    "corollaries": _items_corollaries,
}

SUITE_NAMES = tuple(_BUILDERS)

# windows sized to keep a full run at desk scale
DEFAULT_OPTIONS: dict[str, SweepOptions] = {
    "commutation": SweepOptions(max_degree=8, max_mode=8, charges=(0,)),
    "fermion": SweepOptions(max_degree=6, max_mode=6),
    "twisted-fermion": SweepOptions(max_degree=6, max_mode=6),
    "heisenberg": SweepOptions(max_degree=6, max_mode=6, charges=(-3, -2, -1, 0, 1, 2, 3)),
    "twisted-heisenberg": SweepOptions(max_degree=4, max_mode=5),
    "virasoro": SweepOptions(max_degree=6, max_mode=3, charges=(-1, 0, 1)),
    "kernel-factorization": SweepOptions(max_degree=4, max_mode=4, charges=(-1, 0, 1)),
    "duality": SweepOptions(max_degree=6, max_mode=0, charges=()),
    "bases-agreement": SweepOptions(max_degree=8, max_mode=0, charges=()),
    "corollaries": SweepOptions(max_degree=4, max_mode=0, charges=()),
}


def _execute_item(item: Item) -> CheckResult:
    suite, params, opts = item
    return _EXECUTORS[suite](params, opts)


def thread_count() -> int:
    """Worker count: SF_THREADS, a positive integer, else available parallelism."""
    raw = os.environ.get("SF_THREADS")
    if raw is None:
        return os.cpu_count() or 1
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"SF_THREADS must be a positive integer, got {raw!r}")
    return n


def run_suite(suite: str, opts: SweepOptions | None = None, threads: int | None = None) -> Iterator[CheckResult]:
    """Yield results for one suite in deterministic order."""
    if suite not in _BUILDERS:
        raise ValueError(f"unknown suite {suite!r}")
    if opts is None:
        opts = DEFAULT_OPTIONS[suite]
    items = _BUILDERS[suite](opts)
    if threads is None:
        threads = thread_count()
    if threads <= 1 or len(items) < 4:
        for item in items:
            yield _execute_item(item)
        return
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    chunk = max(1, len(items) // (threads * 8))
    with ctx.Pool(threads) as pool:
        yield from pool.imap(_execute_item, items, chunksize=chunk)

"""Named verification sweeps over the operator identities.

Every suite expands into a deterministic list of independent items; an
item checks one identity instance (one mode pair, one partition, ...)
over the requested window of basis vectors, and its result carries no
witness when the identity holds and a JSON witness when it fails.  Items
are self-contained and picklable, so sweeps parallelise over processes;
results are always reduced in the fixed submission order, making output
independent of worker count.  A suite is one `Suite` record in `SUITES`:
its item builder, its item executor (an anticommutator suite's kernels
bound into it) and its default window.  The fields a suite reads are
those its default window sets.  `run_suite` validates the sweep before
any item runs, so an empty or negative window is an error, never a
vacuous "ok".  A `SweepOptions` field left None takes the suite's
default, and a field given to a suite that never reads it is an error
rather than ignored.

The commutation suite states its two sides as plain functions on Fock
vectors and goes through `fock.check_mode_identity`.  Every Fock-kernel
suite states its sides as pieces (c(t)/b times a packed column) on z^m p_la,
read from `fock`'s one definition of each operator (the kernel modes,
`alpha`, `twisted_alpha`, `virasoro`), and goes through `_check_packed`,
one packed zero test (`_differ`) per basis vector.  The brackets share one
builder, `_bracket`, which unpacks the inner mode's column once and puts
each digit on the outer mode's column.  A first miss of a bilinear column
builds it at every charge of the sweep.  kernel-factorization sums its
h_s twisted+[a+s] side as one `fock._digit_sum` and rescales p_mu by
prod_i (1-t^mu_i) digit by digit, so a passing item builds no SymFunc.

The classical fermion suite is the t = 0 case of the twisted one: at
t = 0 the twisted kernels are the classical ones, and both suites check,
for a kernel pair (K+, K-) and a parameter t,

    {K[a], K[b]} - t K[a-1] K[b+1] - t K[b-1] K[a+1] = 0            (pp, mm)
    {K+[a], K-[b]} - t K+[a+1] K-[b-1] - t K-[b+1] K+[a-1]
        = (1-t)**2 delta_{a+b,-1}                                      (pm)

with (fermion+, fermion-, 0) and (twisted+, twisted-, t).  At t = 0 these
are the classical anticommutators and the t-shifted terms are never built.
A mode sees the charge m only through its shift j + eps m + 1, so the check
at (a, b, m, la) is the one at (a + eps1 m, b + eps2 m, 0, la): its
compositions are read in that charge-0 frame from `fock.diagonal`, and each
process runs it once.  An item shares its compositions across its charges:
it keeps one diagonal per (d0, la).  Each pair's two sides are stated as
pieces, and the same packed zero test as the bilinear suites' (`_differ`)
decides it; a SymFunc is built only for a failure witness.  Only passing
keys are kept: a failure and its witness are never cached.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import cache, partial
from typing import Callable, Iterator, NamedTuple

from .fock import (
    FERMION_MINUS,
    FERMION_PLUS,
    TWISTED_MINUS,
    TWISTED_PLUS,
    DEFORMED_MINUS,
    DEFORMED_PLUS,
    Column,
    Digits,
    Exponents,
    FockVector,
    Piece,
    VertexKernel,
    _combine,
    _digit_sum,
    _lift,
    _multiplier,
    _pmul,
    _unpack,
    alpha,
    check_mode_identity,
    corrupted_kernel,
    diagonal,
    pieces,
    twisted_alpha,
    virasoro,
    witness_json,
)
from .partitions import Partition, partitions_of, partitions_up_to, weight
from .ratfun import RF_ONE, RF_T, RF_ZERO, RatFun, rat_to_json, rf_one_minus_t_pow
from .symfunc import perp_apply, scalar_product, symfunc_to_json

# one corrupted copy per kernel, so its mode cache survives across items
_corrupted = cache(corrupted_kernel)
# the keys (a + K1.eps m, b + K2.eps m, la) of the anticommutator checks that
# passed in this process (each pool worker has its own), by the (K1, K2, t) of
# their relation
_passed: dict[tuple, set[tuple]] = {}


class SweepOptions(NamedTuple):
    """A sweep window; `run_suite` fills every None field from the suite's defaults."""

    max_degree: int | None = None
    max_mode: int | None = None
    charges: tuple[int, ...] | None = None
    betas: tuple[Fraction, ...] | None = None
    corrupt: bool | None = None


class CheckResult(NamedTuple):
    """One item's verdict: `witness` is None when its identity holds, else the
    JSON witness of the failure."""

    suite: str
    name: str
    witness: dict | None = None

    @property
    def ok(self) -> bool:
        return self.witness is None


class Suite(NamedTuple):
    """One suite: `build` lists the bare params of its items, `run(params,
    opts)` checks one, and `defaults` is its window (sized to keep a full run
    at desk scale), setting exactly the fields the suite reads."""

    build: Callable[[SweepOptions], list]
    run: Callable[[tuple, SweepOptions], CheckResult]
    defaults: SweepOptions


Item = tuple  # (suite, params, opts)


# ---------------------------------------------------------------------------
# item executors, one per suite


def _run_commutation(params, opts: SweepOptions) -> CheckResult:
    """low_a^perp up_b against up_b low_a^perp, with the lower pair (a-1, b-1)
    on the left for ee/hh and on the right for he/eh."""
    from .bases import complete_h as h, elementary_e as e

    rel, a, b = params
    low, up = {"ee": (e, e), "hh": (h, h), "he": (h, e), "eh": (e, h)}[rel]
    d, u, d1, u1 = low(a), up(b), low(a - 1), up(b - 1)
    lower = a >= 1 and b >= 1

    def lhs(v: FockVector) -> FockVector:
        body = perp_apply(d, u * v.body)
        if lower and rel in ("ee", "hh"):
            body = body - perp_apply(d1, u1 * v.body)
        return FockVector(v.charge, body)

    def rhs(v: FockVector) -> FockVector:
        body = u * perp_apply(d, v.body)
        if lower and rel in ("he", "eh"):
            body = body + u1 * perp_apply(d1, v.body)
        return FockVector(v.charge, body)

    witness = check_mode_identity(lhs, rhs, opts.max_degree, opts.charges)
    return CheckResult("commutation", f"{rel}[a={a},b={b}]", witness)


def _run_anticommutators(
    suite: str, plus: VertexKernel, minus: VertexKernel, t: RatFun, params, opts: SweepOptions
) -> CheckResult:
    """All anticommutators of one relation with a+b = d at once, on the
    suite's kernels (plus, minus) and parameter t.

    On z^m p_la the pair (a, b) is, in the charge-0 frame, the one at
    (a0, b0) = (a + K1.eps m, b + K2.eps m), on the diagonal d0 = a0 + b0.
    With X, Y the two sides of `diagonal(K1, K2, d0, la)`, {K1[a], K2[b]}
    reads X(a0) + Y(b0) and its t-terms X(a0+e) + Y(b0+e).  A check whose
    key (a0, b0, la) is in this process's `_passed` is skipped; the others
    read X and Y from one diagonal per (d0, la), kept for the whole item, so
    a composition one charge built is read, not rebuilt, at the next (pm
    reads the one diagonal d0 = d at every charge).
    """
    rel, d = params
    if opts.corrupt:
        plus = _corrupted(plus)
    K1, K2, e = {"pp": (plus, plus, -1), "mm": (minus, minus, -1), "pm": (plus, minus, 1)}[rel]
    W = opts.max_mode
    window = range(max(-W, d - W), min(W, d + W) + 1)
    pairs = [(a, d - a) for a in window if rel == "pm" or a <= d - a]
    delta = ((RF_ONE - t) * (RF_ONE - t) if rel == "pm" and d == -1 else RF_ZERO).poly_parts()
    minus_t = (-t).poly_parts()
    name = f"{rel}[a+b={d}]"
    passed = _passed.setdefault((K1, K2, t), set())
    sides: dict[tuple[int, Partition], tuple] = {}
    for m in sorted(opts.charges):
        for la in partitions_up_to(opts.max_degree):
            key = (d + (K1.eps + K2.eps) * m, la)
            X, Y = sides.get(key) or sides.setdefault(key, diagonal(K1, K2, *key))
            right = _unit(la, *delta)
            for a, b in pairs:
                a0, b0 = a + K1.eps * m, b + K2.eps * m
                if (a0, b0, la) in passed:
                    continue
                left = pieces(X(a0)) + pieces(Y(b0))
                if t:
                    left += pieces(X(a0 + e), *minus_t) + pieces(Y(b0 + e), *minus_t)
                if _differ(left, right):
                    witness = witness_json(m, la, _vector(m + K1.eps + K2.eps, left), _vector(m, right))
                    return CheckResult(suite, name, {"relation": rel, "a": a, "b": b, **witness})
                passed.add((a0, b0, la))
    return CheckResult(suite, name)


# an operator by its modes on basis vectors: op(k, m, la) is mode k on z^m p_la as pieces
ModeOp = Callable[[int, int, Partition], list[Piece]]


def _negated(c: Digits) -> Digits:
    return -c if type(c) is int else tuple(-d for d in c)


def _differ(left: list[Piece], right: list[Piece]) -> bool:
    """The one packed zero test: whether left minus right, pieces all of one
    weight, is nonzero."""
    terms = left + [(_negated(c), b, col) for c, b, col in right]
    return bool(terms and _combine(terms[0][2].weight, terms).enc)


def _vector(m: int, terms: list[Piece]) -> FockVector:
    """One side of a failure witness: its pieces, of one weight, summed packed
    and unpacked, at charge m."""
    return FockVector(m, _unpack([_combine(terms[0][2].weight, terms)] if terms else [], None))


def _check_packed(
    suite: str, name: str, sides: Callable[[int, Partition], tuple[list[Piece], list[Piece]]], opts: SweepOptions, eps: int = 0
) -> CheckResult:
    """`fock.check_mode_identity` on packed sides: sides(m, la) gives the
    pieces of the left and right sides on z^m p_la, all of one weight, each
    side a vector of charge m + eps (eps the charge shift of the operators,
    0 for the bilinears).  Each basis vector is one zero test of the packed
    left minus right; only at the first vector where that fails are the two
    sides summed, each on its own, and unpacked to SymFuncs for the witness."""
    for m in sorted(opts.charges):
        for la in partitions_up_to(opts.max_degree):
            left, right = sides(m, la)
            if _differ(left, right):
                return CheckResult(suite, name, witness_json(m, la, _vector(m + eps, left), _vector(m + eps, right)))
    return CheckResult(suite, name)


def _bracket(op: ModeOp, j: int, k: int, m: int, la: Partition) -> list[Piece]:
    """[op(j), op(k)] z^m p_la as pieces: the inner mode's pieces summed to one
    column and unpacked once, each digit c_mu then a piece on each column of
    the outer mode on z^m p_mu, over the inner denominator (its (1-t^v)
    exponents added to the outer column's)."""
    out = []
    for outer, inner, sign in ((j, k, 1), (k, j, -1)):
        terms = op(inner, m, la)
        if not terms:
            continue
        col = _combine(terms[0][2].weight, terms)
        for mu, c in col.digits():
            if sign < 0:
                c = _negated(c)
            for c2, b2, col2 in op(outer, m, mu):
                out.append((_pmul(c, c2), col.den * b2, col2.over(col.ex) if col.ex else col2))
    return out


def _unit(la: Partition, c: Digits, b: int = 1, ex: Exponents = ()) -> list[Piece]:
    """(c/b) p_la / prod_v (1-t^v)**ex[v-1] as pieces, none for c = 0."""
    return [(c, b, Column.from_digits(weight(la), [(la, 1)], 1, ex))] if c else []


def _run_heisenberg(params, opts: SweepOptions) -> CheckResult:
    op = partial(alpha, charges=opts.charges)
    if params[0] == "comm":
        _, j, k = params
        c = j if j == -k else 0
        sides = lambda m, la: (_bracket(op, j, k, m, la), _unit(la, c))
        return _check_packed("heisenberg", f"comm[j={j},k={k}]", sides, opts)
    _, k = params

    # action: alpha_{-n} multiplies by p_n, alpha_n derives, alpha_0 reads charge
    def want(m: int, la: Partition) -> list[Piece]:
        if k < 0:
            return _unit(tuple(sorted(la + (-k,), reverse=True)), 1)
        if k == 0:
            return _unit(la, m)
        if k not in la:
            return []
        i = la.index(k)
        return _unit(la[:i] + la[i + 1 :], k * la.count(k))

    return _check_packed("heisenberg", f"action[k={k}]", lambda m, la: (op(k, m, la), want(m, la)), opts)


def _run_twisted_heisenberg(params, opts: SweepOptions) -> CheckResult:
    _, j, k = params
    h = partial(twisted_alpha, charges=opts.charges)
    # j/(1 - t**|j|) on the diagonal j = -k, its exponent vector written out
    # here rather than read from the function twisted_alpha divides by
    c = j if j == -k else 0
    ex = (0,) * (abs(j) - 1) + (1,)
    sides = lambda m, la: (_bracket(h, j, k, m, la), _unit(la, c, 1, ex))
    return _check_packed("twisted-heisenberg", f"comm[j={j},k={k}]", sides, opts)


def _run_virasoro(params, opts: SweepOptions) -> CheckResult:
    beta, j, k = params
    c_beta = -12 * beta * beta + 12 * beta - 2
    central = Fraction(j**3 - j) * c_beta / 12 if j == -k else Fraction(0)
    L = partial(virasoro, beta.numerator, beta.denominator, charges=opts.charges)

    def sides(m: int, la: Partition) -> tuple[list[Piece], list[Piece]]:
        right = [(c * (j - k), b, col) for c, b, col in L(j + k, m, la)] if j != k else []
        return _bracket(L, j, k, m, la), right + _unit(la, central.numerator, central.denominator)

    return _check_packed("virasoro", f"beta={beta}[j={j},k={k}]", sides, opts)


def _deformation(la: Partition) -> Digits:
    """The t-digits of prod_i (1 - t^la_i): p_la under p_n -> (1-t^n) p_n."""
    return _lift(tuple(la.count(v) for v in range(1, la[0] + 1)) if la else (), ())


def _run_kernel_factorization(params, opts: SweepOptions) -> CheckResult:
    """On z^m p_la: fermion+[a] = sum_s t^s h_s twisted+[a+s] (plus),
    twisted-[a] = sum_s t^s h_s fermion-[a+s] (minus), and deformed±[a] as
    fermion±[a] conjugated by p_n -> (1-t^n) p_n (conj±)."""
    from .bases import complete_h

    kind, a = params
    if kind.startswith("conj"):
        deformed, plain = (DEFORMED_PLUS, FERMION_PLUS) if kind == "conj+" else (DEFORMED_MINUS, FERMION_MINUS)

        def sides(m: int, la: Partition) -> tuple[list[Piece], list[Piece]]:
            col = plain.mode_on_basis(a, m, la)
            right = Column.from_digits(
                col.weight, [(mu, _pmul(c, _deformation(mu))) for mu, c in col.digits()], col.den, col.ex
            )
            return pieces(deformed.mode_on_basis(a, m, la), _deformation(la)), pieces(right)

        return _check_packed("kernel-factorization", f"{kind}[a={a}]", sides, opts, plain.eps)
    outer, inner = (FERMION_PLUS, TWISTED_PLUS) if kind == "plus" else (TWISTED_MINUS, FERMION_MINUS)

    def factored(m: int, la: Partition) -> tuple[list[Piece], list[Piece]]:
        # one digit sum over s and the terms c_mu p_mu of h_s of t^s c_mu p_mu inner[a+s] p_la
        left = outer.mode_on_basis(a, m, la)
        terms = []
        for s in range(left.weight + 1):
            col = inner.mode_on_basis(a + s, m, la)
            if col.enc:
                A = _multiplier(col)
                for mu, c in complete_h(s).terms.items():
                    c, b = c.poly_parts()
                    terms.append(((0,) * s + (c,) if s else c, b, (), A, mu))
        return pieces(left), pieces(_digit_sum(left.weight, terms))

    return _check_packed("kernel-factorization", f"{kind}[a={a}]", factored, opts, outer.eps)


def _run_duality(params, opts: SweepOptions) -> CheckResult:
    from .bases import dual_schur, schur

    la, mu = params
    value = scalar_product(dual_schur(la), schur(mu), deformed=True)
    want = RatFun.from_int(1 if la == mu else 0)
    witness = None if value == want else {"la": list(la), "mu": list(mu), "value": rat_to_json(value)}
    return CheckResult("duality", f"<S{list(la)},s{list(mu)}>_t", witness)


def _n(la: Partition) -> int:
    return max(weight(la), 1)


def _agreement_routes(kind: str) -> dict[str, Callable]:
    """The routes that must agree on la for one bases-agreement kind: the
    vertex-mode and generating-function routes to a family, and its
    determinants, oracles and specialisations."""
    from .bases import dual_schur, expand_in_variables, hall_littlewood_oracle, schur, schur_oracle
    from .vertex import basis_via_vertex, generating_coefficient_direct

    def routes(family: str) -> dict[str, Callable]:
        return {"vertex": lambda la: basis_via_vertex(family, la), "generating": lambda la: generating_coefficient_direct(family, la)}

    return {
        "schur-routes": {**routes("schur"), "det": schur},
        "schur-oracle": {"det": lambda la: expand_in_variables(schur(la), _n(la)), "oracle": lambda la: schur_oracle(la, _n(la))},
        "hl-routes": routes("hall_littlewood"),
        "hl-oracle": {
            "vertex": lambda la: expand_in_variables(basis_via_vertex("hall_littlewood", la), _n(la)),
            "oracle": lambda la: hall_littlewood_oracle(la, _n(la)),
        },
        "hl-t0": {"vertex": lambda la: basis_via_vertex("hall_littlewood", la).specialize_t(0), "det": schur},
        "dual-routes": {**routes("dual_schur"), "det": dual_schur, "subst": lambda la: schur(la).scale_p(rf_one_minus_t_pow)},
        "dual-t0": {"det": lambda la: dual_schur(la).specialize_t(0), "schur": schur},
    }[kind]


def _run_bases_agreement(params, opts: SweepOptions) -> CheckResult:
    """A witness shows every expansion for the "-routes" kinds, else la (and n, for an oracle)."""
    kind, la = params
    values = {route: fn(la) for route, fn in _agreement_routes(kind).items()}
    first, *rest = values.values()
    witness = None
    if any(value != first for value in rest):
        if kind.endswith("-routes"):
            witness = {route: symfunc_to_json(f) for route, f in values.items()}
        else:
            witness = {"la": list(la), "n": _n(la)} if kind.endswith("-oracle") else {"la": list(la)}
    return CheckResult("bases-agreement", f"{kind}{list(la)}", witness)


def _run_corollaries(params, opts: SweepOptions) -> CheckResult:
    from .vertex import crosscheck_corollaries

    return CheckResult("corollaries", f"products{list(params[0])}", crosscheck_corollaries(params[0]))


# ---------------------------------------------------------------------------
# suite item builders


def _items_commutation(opts: SweepOptions) -> list:
    window = range(0, opts.max_mode + 1)
    return [(rel, a, b) for rel in ("ee", "hh", "he", "eh") for a in window for b in window]


def _items_anticommutators(opts: SweepOptions) -> list:
    diagonals = range(-2 * opts.max_mode, 2 * opts.max_mode + 1)
    return [(rel, d) for rel in ("pp", "mm", "pm") for d in diagonals]


def _items_heisenberg(opts: SweepOptions) -> list:
    window = range(-opts.max_mode, opts.max_mode + 1)
    return [("comm", j, k) for j in window for k in window if j <= k] + [("action", k) for k in window]


def _items_twisted_heisenberg(opts: SweepOptions) -> list:
    window = [j for j in range(-opts.max_mode, opts.max_mode + 1) if j != 0]
    return [("comm", j, k) for j in window for k in window if j <= k]


def _items_virasoro(opts: SweepOptions) -> list:
    window = range(-opts.max_mode, opts.max_mode + 1)
    return [(beta, j, k) for beta in opts.betas for j in window for k in window if j <= k]


def _items_kernel_factorization(opts: SweepOptions) -> list:
    window = range(-opts.max_mode, opts.max_mode + 1)
    return [(kind, a) for kind in ("plus", "minus", "conj+", "conj-") for a in window]


def _items_duality(opts: SweepOptions) -> list:
    return [(la, mu) for w in range(opts.max_degree + 1) for la in partitions_of(w) for mu in partitions_of(w)]


def _items_bases_agreement(opts: SweepOptions) -> list:
    d = opts.max_degree
    items = [("schur-routes", la) for la in partitions_up_to(d)]
    items += [("schur-oracle", la) for la in partitions_up_to(min(d, 6)) if la]
    for la in partitions_up_to(min(d, 5)):
        items += [(kind, la) for kind in ("hl-routes", "hl-oracle", "hl-t0") if la or kind != "hl-oracle"]
    for la in partitions_up_to(min(d, 6)):
        items += [("dual-routes", la), ("dual-t0", la)]
    return items


def _items_corollaries(opts: SweepOptions) -> list:
    return [(la,) for la in partitions_up_to(opts.max_degree)]


_CHARGES = (-2, -1, 0, 1, 2)
SUITES: dict[str, Suite] = {
    "commutation": Suite(_items_commutation, _run_commutation, SweepOptions(max_degree=8, max_mode=8, charges=(0,))),
    "fermion": Suite(
        _items_anticommutators, partial(_run_anticommutators, "fermion", FERMION_PLUS, FERMION_MINUS, RF_ZERO),
        SweepOptions(max_degree=6, max_mode=6, charges=_CHARGES, corrupt=False),
    ),
    "twisted-fermion": Suite(
        _items_anticommutators, partial(_run_anticommutators, "twisted-fermion", TWISTED_PLUS, TWISTED_MINUS, RF_T),
        SweepOptions(max_degree=6, max_mode=6, charges=_CHARGES, corrupt=False),
    ),
    "heisenberg": Suite(
        _items_heisenberg, _run_heisenberg, SweepOptions(max_degree=6, max_mode=6, charges=(-3, -2, -1, 0, 1, 2, 3))
    ),
    "twisted-heisenberg": Suite(
        _items_twisted_heisenberg, _run_twisted_heisenberg, SweepOptions(max_degree=4, max_mode=5, charges=_CHARGES)
    ),
    "virasoro": Suite(
        _items_virasoro, _run_virasoro,
        SweepOptions(
            max_degree=6, max_mode=3, charges=(-1, 0, 1), betas=(Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2))
        ),
    ),
    "kernel-factorization": Suite(
        _items_kernel_factorization, _run_kernel_factorization, SweepOptions(max_degree=4, max_mode=4, charges=(-1, 0, 1))
    ),
    "duality": Suite(_items_duality, _run_duality, SweepOptions(max_degree=6)),
    "bases-agreement": Suite(_items_bases_agreement, _run_bases_agreement, SweepOptions(max_degree=8)),
    "corollaries": Suite(_items_corollaries, _run_corollaries, SweepOptions(max_degree=4)),
}

SUITE_NAMES = tuple(SUITES)
# views of SUITES, kept because the bench harness (bench/test_run.py) imports
# them; it derives windows from DEFAULT_OPTIONS with dataclasses.replace, so
# that view is built on first read (`__getattr__`), as frozen dataclasses
_BUILDERS = {name: suite.build for name, suite in SUITES.items()}


def __getattr__(name: str):
    if name != "DEFAULT_OPTIONS":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from dataclasses import make_dataclass

    window = make_dataclass("SweepOptions", [(f, object, None) for f in SweepOptions._fields], frozen=True)
    return {suite: window(*record.defaults) for suite, record in SUITES.items()}


def _execute_item(item: Item) -> CheckResult:
    suite, params, opts = item
    return SUITES[suite].run(params, opts)


def thread_count() -> int:
    """Worker count: SF_THREADS, a positive integer, else available parallelism
    (the CPUs this process may run on, where the platform reports them)."""
    raw = os.environ.get("SF_THREADS")
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0)) or 1
        return os.cpu_count() or 1
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"SF_THREADS must be a positive integer, got {raw!r}")
    return n


def run_suite(suite: str, opts: SweepOptions | None = None, threads: int | None = None) -> Iterator[CheckResult]:
    """Results for one suite, in deterministic order.

    The sweep is validated before any item runs: an unknown suite, a
    field the suite never reads (say `corrupt` outside the anticommutator
    suites), a negative window, a window that yields no items, an empty
    charge list and a repeated charge or beta all raise ValueError, as
    does a malformed SF_THREADS.
    """
    record = SUITES.get(suite)
    if record is None:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
    given = {name: value for name, value in (opts or SweepOptions())._asdict().items() if value is not None}
    reads = {name for name, value in record.defaults._asdict().items() if value is not None}
    unread = [name for name in given if name not in reads]
    if unread:
        raise ValueError(f"suite {suite!r} does not read {', '.join(unread)}")
    opts = record.defaults._replace(**given)
    if opts.max_degree < 0 or (opts.max_mode or 0) < 0:
        raise ValueError("max_degree and max_mode must be nonnegative")
    if opts.charges == ():
        raise ValueError(f"suite {suite!r} needs at least one charge")
    for name in ("charges", "betas"):
        values = getattr(opts, name)
        if values is not None and len(set(values)) < len(values):
            raise ValueError(f"repeated value in {name} of suite {suite!r}")
    items = [(suite, params, opts) for params in record.build(opts)]
    if not items:
        raise ValueError(f"the window of suite {suite!r} yields no identities to verify")
    if threads is None:
        threads = thread_count()
    return _results(items, threads)


def _results(items: list[Item], threads: int) -> Iterator[CheckResult]:
    if threads <= 1 or len(items) < 4:
        yield from map(_execute_item, items)
        return
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    workers = min(threads, len(items))
    chunk = max(1, len(items) // (workers * 8))
    with ctx.Pool(workers) as pool:
        yield from pool.imap(_execute_item, items, chunksize=chunk)

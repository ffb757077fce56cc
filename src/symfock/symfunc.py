"""The ring Lambda[t] of symmetric functions presented in power sums.

An element is a finite Q(t)-linear combination of monomials
p_la = p_{la_1} p_{la_2} ... indexed by partitions, stored sparsely as a
dict partition -> RatFun with no zero coefficients.  The generators p_n
are algebraically independent, so multiplication is free-commutative
monomial merging.

Besides ring arithmetic the module provides the derivations d/dp_n, the
diagonal substitutions p_n -> s(n) p_n, the classical and t-deformed
scalar products

    <p_la, p_mu>   = delta z_la,
    <p_la, p_mu>_t = delta z_la prod_i 1/(1 - t**la_i),

and the adjoint ("perp") of multiplication with respect to either one.
"""

from __future__ import annotations

from fractions import Fraction
from math import perm, prod
from typing import Callable, Iterable, Iterator

from .partitions import (
    Partition,
    as_partition,
    multiplicities,
    partition_from_json,
    revlex_key,
    weight,
    z_factor,
)
from .ratfun import (
    RF_ONE,
    RF_ZERO,
    RatFun,
    rat_from_json,
    rat_to_json,
    rf_inv_one_minus_t_pow,
    sum_products,
)

Coeff = RatFun | Fraction | int
# a perp plan entry: multiplicity items of mu and its coefficient
PlanEntry = tuple[tuple[tuple[int, int], ...], RatFun]


def _coerce(c: Coeff) -> RatFun:
    if isinstance(c, RatFun):
        return c
    return RatFun.from_fraction(c)


def _merge(la: Partition, mu: Partition) -> Partition:
    return tuple(sorted(la + mu, reverse=True))


class SymFunc:
    """A symmetric function: finite sum of p-monomials with Q(t) coefficients."""

    # _perp_plans is unset until perp_apply first reads f's plan
    __slots__ = ("terms", "_perp_plans")

    def __init__(self, terms: dict[Partition, RatFun] | None = None, _clean: bool = False):
        if terms is None:
            terms = {}
        if not _clean:
            terms = {la: c for la, c in terms.items() if not c.is_zero()}
        self.terms = terms

    @classmethod
    def zero(cls) -> "SymFunc":
        return cls({}, _clean=True)

    @classmethod
    def one(cls) -> "SymFunc":
        return cls({(): RF_ONE}, _clean=True)

    @classmethod
    def p(cls, n: int) -> "SymFunc":
        if n < 1:
            raise ValueError("power sums are indexed by n >= 1")
        return cls({(n,): RF_ONE}, _clean=True)

    @classmethod
    def monomial(cls, la, coeff: Coeff = 1) -> "SymFunc":
        c = _coerce(coeff)
        if c.is_zero():
            return cls.zero()
        return cls({as_partition(la): c}, _clean=True)

    @classmethod
    def constant(cls, coeff: Coeff) -> "SymFunc":
        return cls.monomial((), coeff)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        """Top p-degree; -1 for the zero element."""
        return max((weight(la) for la in self.terms), default=-1)

    def __add__(self, other: "SymFunc") -> "SymFunc":
        return self._merged(other, False) if self.terms else other

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        return self._merged(other, True)

    def _merged(self, other: "SymFunc", negate: bool) -> "SymFunc":
        """self + other, or self - other when negate.  A key that one side
        alone holds keeps that RatFun object and its memoised canonical
        form, unless other's is negated."""
        if not other.terms:
            return self
        out = dict(self.terms)
        for la, c in other.terms.items():
            if negate:
                c = -c
            acc = out.get(la)
            s = c if acc is None else acc + c
            if s.is_zero():
                out.pop(la, None)
            else:
                out[la] = s
        return SymFunc(out, _clean=True)

    def __neg__(self) -> "SymFunc":
        return SymFunc({la: -c for la, c in self.terms.items()}, _clean=True)

    def scaled(self, c: Coeff) -> "SymFunc":
        c = _coerce(c)
        if c.is_zero():
            return SymFunc.zero()
        return SymFunc({la: v * c for la, v in self.terms.items()}, _clean=True)

    def __mul__(self, other: "SymFunc") -> "SymFunc":
        """The product, its term products summed by `sum_products`."""
        terms = ((_merge(la, mu), c, d, 1) for la, c in self.terms.items() for mu, d in other.terms.items())
        return SymFunc(sum_products(terms), _clean=True)

    def times_p(self, n: int) -> "SymFunc":
        """Multiplication by the generator p_n (cheap monomial prefixing)."""
        return self.times_monomial((n,))

    def times_monomial(self, mu: Partition) -> "SymFunc":
        """Multiplication by p_mu: monomial merging with unchanged coefficients."""
        if not mu:
            return self
        return SymFunc({_merge(la, mu): c for la, c in self.terms.items()}, _clean=True)

    def diff_p(self, n: int) -> "SymFunc":
        """Formal partial derivative with respect to p_n.

        Removing one part n is injective on the partitions holding one, so
        no two terms meet and there is nothing to sum.
        """
        if n < 1:
            raise ValueError("derivations are indexed by n >= 1")
        out: dict[Partition, RatFun] = {}
        for la, c in self.terms.items():
            if n in la:
                i = la.index(n)
                out[la[:i] + la[i + 1 :]] = c.scale(la.count(n))
        return SymFunc(out, _clean=True)

    def scale_p(self, s: Callable[[int], RatFun]) -> "SymFunc":
        """The algebra endomorphism p_n -> s(n) * p_n."""
        out: dict[Partition, RatFun] = {}
        for la, c in self.terms.items():
            for part in la:
                c = c * s(part)
            if not c.is_zero():
                out[la] = c
        return SymFunc(out, _clean=True)

    def specialize_t(self, t0: Fraction | int) -> "SymFunc":
        """Evaluate every coefficient at t = t0 (raises on a pole)."""
        out: dict[Partition, RatFun] = {}
        for la, c in self.terms.items():
            v = RatFun.from_fraction(c.eval_at(t0))
            if not v.is_zero():
                out[la] = v
        return SymFunc(out, _clean=True)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset((la, hash(c)) for la, c in self.terms.items()))

    def sorted_terms(self) -> list[tuple[Partition, RatFun]]:
        """Terms ordered by weight, then reverse-lexicographically."""
        return sorted(self.terms.items(), key=lambda kv: (weight(kv[0]), revlex_key(kv[0])))

    def __repr__(self) -> str:
        if not self.terms:
            return "SymFunc(0)"
        bits = [f"p{list(la)}: {c!r}" for la, c in self.sorted_terms()]
        return "SymFunc(" + ", ".join(bits) + ")"


def linear_combination(pairs: Iterable[tuple[RatFun, SymFunc]]) -> SymFunc:
    """Sum of c * f over the given pairs, accumulated in one dict pass.

    The one accumulator of Lambda[t]: it serves the Newton recurrences of
    h_k and e_k and the Jacobi-Trudi minors in `bases`, the
    generating-function extraction and the h.e convolution in `vertex`, the
    kernel-factorization items of `verify`, and is the tests' reference.
    Fock operators sum packed columns instead (`fock.combine`).  Its bucket
    sum `ratfun.sum_products` has four more users, `SymFunc.__mul__`,
    `perp_apply`, `bases.expand_in_variables` and `kp.omega_apply`.
    """
    return SymFunc(sum_products((la, c, v, 1) for c, f in pairs if c for la, v in f.terms.items()), _clean=True)


def scalar_product(f: SymFunc, g: SymFunc, deformed: bool = False) -> RatFun:
    """<f, g> or <f, g>_t on the power-sum basis."""
    acc = RF_ZERO
    small, large = (f.terms, g.terms) if len(f.terms) <= len(g.terms) else (g.terms, f.terms)
    for la, c in small.items():
        d = large.get(la)
        if d is None:
            continue
        term = (c * d).scale(Fraction(z_factor(la)))
        if deformed:
            for part in la:
                term = term * rf_inv_one_minus_t_pow(part)
        acc = acc + term
    return acc


def perp_apply(f: SymFunc, g: SymFunc, deformed: bool = False) -> SymFunc:
    """Apply the adjoint of multiplication by f to g.

    Classically p_n acts as n d/dp_n; for the t-deformed product as
    n/(1 - t**n) d/dp_n.  Both substitutions turn any f into a finite
    differential polynomial: p_mu-perp p_nu is
    prod_v v**m_v (m'_v)_(m_v) p_(nu - mu), with m_v and m'_v the
    multiplicities of v in mu and nu and (m')_(m) = m'(m'-1)...(m'-m+1)
    the falling factorial, times prod_i 1/(1 - t**mu_i) when deformed.

    f's plan (`_perp_plan`) holds, per term mu, its multiplicity items and
    one coefficient with every factor but the falling factorials.  Each term
    nu of g reads its multiplicities once; each plan entry then costs an
    integer falling factorial and a residual partition, and its product
    with nu's coefficient is summed in the buckets of `sum_products` with
    no object built per (mu, nu) pair.
    """
    return SymFunc(sum_products(_perp_terms(_perp_plan(f, deformed), g)), _clean=True)


def _perp_plan(f: SymFunc, deformed: bool) -> tuple[PlanEntry, ...]:
    """Per term c p_mu of f: the multiplicity items of mu and the coefficient
    c prod_i mu_i, times prod_i 1/(1 - t**mu_i) when deformed.

    Memoised on f, one plan per product; a SymFunc never changes, so the
    plan holds as long as f does.
    """
    plans = getattr(f, "_perp_plans", None)
    if plans is None:
        plans = f._perp_plans = {}
    plan = plans.get(deformed)
    if plan is None:
        entries = []
        for mu, c in f.terms.items():
            c = c.scale(prod(mu))
            if deformed:
                for part in mu:
                    c = c * rf_inv_one_minus_t_pow(part)
            entries.append((tuple(multiplicities(mu).items()), c))
        plan = plans[deformed] = tuple(entries)
    return plan


def _perp_terms(plan: tuple[PlanEntry, ...], g: SymFunc) -> Iterator[tuple[Partition, RatFun, RatFun, int]]:
    """The terms (nu - mu, c, d, falling factorial) of p_mu-perp on every term d p_nu of g, per plan entry."""
    for nu, d in g.terms.items():
        counts = multiplicities(nu)
        for items, c in plan:
            k = 1
            rest = nu
            for value, mult in items:
                have = counts.get(value, 0)
                if have < mult:
                    break
                k *= perm(have, mult)
                # nu is sorted, so its parts equal to value are one run
                i = rest.index(value)
                rest = rest[:i] + rest[i + mult :]
            else:
                yield rest, c, d, k


def symfunc_to_json(f: SymFunc) -> dict:
    return {
        "terms": [
            {"p": list(la), "coeff": rat_to_json(c)} for la, c in f.sorted_terms()
        ]
    }


def symfunc_from_json(obj: object) -> SymFunc:
    """Parse {"terms": [{"p": [...], "coeff": {...}}, ...]}: no other key, each
    partition at most once (with a zero coefficient too)."""
    if not isinstance(obj, dict) or set(obj) != {"terms"} or not isinstance(obj["terms"], list):
        raise ValueError("symmetric function JSON must be {'terms': [...]}")
    out: dict[Partition, RatFun] = {}
    for entry in obj["terms"]:
        if not isinstance(entry, dict) or set(entry) != {"p", "coeff"}:
            raise ValueError(f"malformed term entry: {entry!r}")
        la = partition_from_json(entry["p"])
        if la in out:
            raise ValueError(f"duplicate partition in terms: {la}")
        out[la] = rat_from_json(entry["coeff"])
    return SymFunc({la: c for la, c in out.items() if not c.is_zero()}, _clean=True)

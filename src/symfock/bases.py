"""Classical bases of Lambda[t] in the p-presentation, plus finite-variable oracles.

Constructors (all exact, memoised):

* h_k, e_k via the Newton recurrences k h_k = sum p_i h_{k-i} and
  k e_k = sum (-1)**(i-1) p_i e_{k-i};
* the one-parameter modes q_k of H(u) E(-tu), H(u) = sum h_k u**k and
  E(u) = sum e_k u**k (Macdonald III (2.10); the paper's series run in
  u**-1, where this reads H(u) E(-u/t)), from their power-sum form
  q_k = sum_{|la|=k} z_la^-1 prod_i (1 - t**la_i) p_la with no h or e;
  `corollaries` checks them against sum_s h_{k-s} e_s (-t)**s in `vertex`,
  and q_k = (1-t) P_(k) for k >= 1;
* Schur functions s_la = det[h_{la_i - i + j}] and their duals
  S_la = det[q_{la_i - i + j}] under the t-deformed scalar product.

The oracles compute the same objects in finitely many variables
x_1..x_n, straight from the determinant-ratio and symmetrisation
definitions, so they share no code path with the p-basis constructors.
Alternants are divided exactly by the Vandermonde factor by factor;
division is synthetic, hence exact, and any nonzero remainder raises.

Inside the oracles and `expand_in_variables` an exponent vector is one
int key in base B = (total x-degree of the polynomial) + 1, with the
t exponent of the Hall-Littlewood oracle in the slot above the x slots:
a monomial product is a key sum, and times x_j adds B**j.  Every
intermediate of the Vandermonde division has total degree at most that
of its dividend, so no slot ever carries into the next, also on an input
that is not divisible.  The oracles' coefficients are unbounded Python
ints, and RatFuns are built once per output monomial, so the oracles do
not depend on the packed limb width LIMB_BITS of `ratfun`;
`expand_in_variables` sums int multiples of its input's RatFuns.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import permutations
from math import prod
from operator import mul
from typing import Sequence

from .partitions import Partition, as_partition, multiplicities, partitions_of, weight, z_factor
from .ratfun import RF_ONE, RatFun, rat_to_json, rf_inv_one_minus_t_pow, rf_one_minus_t_pow, sum_products
from .symfunc import SymFunc, linear_combination

# ---------------------------------------------------------------------------
# p-basis constructors


@cache
def complete_h(k: int) -> SymFunc:
    """Complete homogeneous h_k in power sums."""
    if k < 0:
        return SymFunc.zero()
    if k == 0:
        return SymFunc.one()
    return linear_combination((RatFun.from_ratio(1, k), complete_h(k - i).times_p(i)) for i in range(1, k + 1))


@cache
def elementary_e(k: int) -> SymFunc:
    """Elementary e_k in power sums."""
    if k < 0:
        return SymFunc.zero()
    if k == 0:
        return SymFunc.one()
    return linear_combination(
        (RatFun.from_ratio((-1) ** (i - 1), k), elementary_e(k - i).times_p(i)) for i in range(1, k + 1)
    )


@cache
def q_coefficient(k: int) -> SymFunc:
    """Mode q_k of H(u) E(-tu), from its power-sum form
    q_k = sum_{|la| = k} z_la^-1 prod_i (1 - t**la_i) p_la."""
    if k < 0:
        return SymFunc.zero()
    return SymFunc(
        {la: prod(map(rf_one_minus_t_pow, la), start=RF_ONE).scale(Fraction(1, z_factor(la))) for la in partitions_of(k)}
    )


def hall_littlewood_row(k: int) -> SymFunc:
    """One-row Hall-Littlewood P_(k); equals q_k/(1-t) for k >= 1."""
    if k < 0:
        return SymFunc.zero()
    if k == 0:
        return SymFunc.one()
    return q_coefficient(k).scaled(rf_inv_one_minus_t_pow(1))


def _det_entries(la: Partition, entry) -> SymFunc:
    """det[ entry(la_i - i + j) ] for i, j = 1..len(la), by cofactor recursion."""
    ell = len(la)
    if ell == 0:
        return SymFunc.one()

    @cache
    def minor(cols: tuple[int, ...]) -> SymFunc:
        i = ell - len(cols)  # 0-based row index
        if not cols:
            return SymFunc.one()
        cells = ((pos, entry(la[i] - i + j)) for pos, j in enumerate(cols))
        return linear_combination(
            (RatFun.from_int((-1) ** pos), cell * minor(cols[:pos] + cols[pos + 1 :])) for pos, cell in cells if cell
        )

    return minor(tuple(range(ell)))


@cache
def schur(la: Partition) -> SymFunc:
    """Schur function via the Jacobi-Trudi determinant det[h_{la_i-i+j}]."""
    la = as_partition(la)
    return _det_entries(la, complete_h)


@cache
def dual_schur(la: Partition) -> SymFunc:
    """Dual basis element via the q-determinant det[q_{la_i-i+j}]."""
    la = as_partition(la)
    return _det_entries(la, q_coefficient)


@cache
def hl_norm_factor(la: Partition) -> RatFun:
    """b_la(t) = prod over part values of prod_{j=1}^{mult} (1 - t**j).

    Dividing the raw vertex/generating-function coefficient for the
    Hall-Littlewood family by this factor yields the monic P_la.
    """
    b = RF_ONE
    for _, mult in multiplicities(la).items():
        for j in range(1, mult + 1):
            b = b * rf_one_minus_t_pow(j)
    return b


# ---------------------------------------------------------------------------
# finite-variable polynomials: exponent vector -> RatFun, computed on dicts
# from packed keys (x^e t^k -> sum_i e_i B**i + k B**n) to ints

VarPoly = dict


def _unpack(key: int, base: int, n: int) -> tuple[int, ...]:
    """The x exponent vector of a packed key."""
    return tuple(key // base**i % base for i in range(n))


def expand_in_variables(f: SymFunc, n: int) -> VarPoly:
    """Substitute p_k -> x_1**k + ... + x_n**k and expand.

    Each p_la(x) is built once per prefix of la; the coefficients of f,
    scaled by its int coefficients, are summed by `sum_products`.
    """
    base = max(f.degree(), 0) + 1
    powers = [base**i for i in range(n)]
    products: dict[Partition, dict[int, int]] = {(): {0: 1}}

    def power_product(la: Partition) -> dict[int, int]:
        got = products.get(la)
        if got is None:
            got = {}
            for key, c in power_product(la[:-1]).items():
                for w in powers:
                    k = key + la[-1] * w
                    got[k] = got.get(k, 0) + c
            products[la] = got
        return got

    terms = ((key, c, RF_ONE, k) for la, c in f.terms.items() for key, k in power_product(la).items())
    return {_unpack(key, base, n): c for key, c in sum_products(terms).items()}


def _divide_linear(p: dict[int, int], wi: int, wj: int, base: int) -> dict[int, int]:
    """Exact division of p by (x_i - x_j), the slots of x_i and x_j at key
    weights wi and wj; raises if the remainder is nonzero."""
    buckets: dict[int, dict[int, int]] = {}
    for key, c in p.items():
        d = key // wi % base
        buckets.setdefault(d, {})[key - d * wi] = c
    quotient: dict[int, int] = {}
    carry: dict[int, int] = {}
    for d in range(max(buckets, default=0), -1, -1):
        cur = buckets.get(d, {})
        for key, c in carry.items():
            key += wj
            s = cur.get(key, 0) + c
            if s:
                cur[key] = s
            else:
                del cur[key]
        if d == 0:
            if cur:
                raise ArithmeticError("alternant not divisible by Vandermonde factor")
            break
        shift = (d - 1) * wi
        for key, c in cur.items():
            quotient[key + shift] = c
        carry = cur
    return quotient


def _divide_vandermonde(p: dict[int, int], n: int, base: int) -> dict[int, int]:
    powers = [base**i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            p = _divide_linear(p, powers[i], powers[j], base)
    return p


def _alternant(reps: dict[tuple[tuple[int, ...], int], int], powers: list[int]) -> dict[int, int]:
    """sum of c * x^rest * sum_sigma sgn(sigma) x^(beta o sigma) over the
    entries (beta, rest) -> c, beta strictly decreasing and rest packed
    outside the x slots.  Distinct beta share no monomial."""
    signs = [_perm_sign(sigma) for sigma in permutations(range(len(powers)))]
    out: dict[int, int] = {}
    for (beta, rest), c in reps.items():
        if c:
            for sign, e in zip(signs, permutations(beta)):
                out[rest + sum(map(mul, e, powers))] = sign * c
    return out


def schur_oracle(la, n: int) -> VarPoly:
    """Bialternant s_la(x_1..x_n) = det[x_i^(la_j+n-j)] / det[x_i^(n-j)]."""
    la = as_partition(la)
    if n < len(la):
        raise ValueError("need at least len(la) variables")
    exps = tuple(la[j] + n - (j + 1) if j < len(la) else n - (j + 1) for j in range(n))
    base = sum(exps) + 1
    numerator = _alternant({(exps, 0): 1}, [base**i for i in range(n)])
    quotient = _divide_vandermonde(numerator, n, base)
    return {_unpack(key, base, n): RatFun.from_int(c) for key, c in quotient.items()}


def _divide_qint(coeffs: list[int], j: int) -> list[int]:
    """Exact division in Z[t] of coeffs (ascending in t) by [j]_t = 1 + t +
    ... + t^(j-1); raises if the remainder is nonzero."""
    r = list(coeffs)
    q = [0] * max(len(r) - j + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + j - 1]
        if c:
            for m in range(k, k + j):
                r[m] -= c
    if any(r):
        raise ArithmeticError("Hall-Littlewood oracle produced a non-polynomial coefficient")
    return q


def hall_littlewood_oracle(la, n: int) -> VarPoly:
    """P_la(x_1..x_n; t) from the symmetrisation definition.

    Computes sum_sigma sgn(sigma) sigma(x^la prod_{i<j} (x_i - t x_j)),
    divides exactly by the Vandermonde, and multiplies by the prefactor
    prod_{i>=0} prod_{j=1}^{m(i)} (1-t)/(1-t^j) with m(0) = n - len(la),
    that is, divides exactly by every [j]_t = (1-t^j)/(1-t).
    The result always has polynomial coefficients in t.
    """
    la = as_partition(la)
    if n < len(la):
        raise ValueError("need at least len(la) variables")
    base = weight(la) + n * (n - 1) // 2 + 1
    powers = [base**i for i in range(n)]
    t_unit = base**n
    poly = {sum(map(mul, la, powers)): 1}
    for i in range(n):
        for j in range(i + 1, n):
            nxt: dict[int, int] = {}
            for key, c in poly.items():
                k = key + powers[i]
                nxt[k] = nxt.get(k, 0) + c
                k = key + powers[j] + t_unit
                nxt[k] = nxt.get(k, 0) - c
            poly = nxt
    # a monomial with a repeated x exponent has signed orbit sum 0; any
    # other lands on its decreasing rearrangement with the sorting sign
    reps: dict[tuple[tuple[int, ...], int], int] = {}
    for key, c in poly.items():
        e = _unpack(key, base, n)
        if c and len(set(e)) == n:
            order = sorted(range(n), key=e.__getitem__, reverse=True)
            rep = (tuple(e[i] for i in order), key - key % t_unit)
            reps[rep] = reps.get(rep, 0) + _perm_sign(order) * c
    quotient = _divide_vandermonde(_alternant(reps, powers), n, base)

    rows: dict[tuple[int, ...], list[int]] = {}
    for key, c in quotient.items():
        row = rows.setdefault(_unpack(key, base, n), [])
        t = key // t_unit
        row += [0] * (t + 1 - len(row))
        row[t] = c
    mults = multiplicities(la)
    mults[0] = n - len(la)
    out: VarPoly = {}
    for e, row in rows.items():
        for m in mults.values():
            for j in range(2, m + 1):
                row = _divide_qint(row, j)
        out[e] = RatFun.from_poly(row, 1)
    return out


def _perm_sign(sigma: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(sigma)
    for start in range(len(sigma)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = sigma[i]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def varpoly_to_json(p: VarPoly, n: int) -> dict:
    terms = sorted(p.items(), key=lambda kv: (sum(kv[0]), tuple(-e for e in kv[0])))
    return {
        "vars": n,
        "terms": [{"e": list(key), "coeff": rat_to_json(c)} for key, c in terms],
    }

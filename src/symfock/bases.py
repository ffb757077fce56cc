"""Classical bases of Lambda[t] in the p-presentation, plus finite-variable oracles.

Constructors (all exact, memoised):

* h_k, e_k via the Newton recurrences k h_k = sum p_i h_{k-i} and
  k e_k = sum (-1)**(i-1) p_i e_{k-i};
* the one-parameter modes q_k of H(u) E(-u/t), q_k = sum_s h_{k-s} e_s (-t)**s,
  with q_k = (1-t) P_(k) for k >= 1;
* Schur functions s_la = det[h_{la_i - i + j}] and their duals
  S_la = det[q_{la_i - i + j}] under the t-deformed scalar product.

The oracles compute the same objects in finitely many variables
x_1..x_n, straight from the determinant-ratio and symmetrisation
definitions, so they share no code path with the p-basis constructors.
Alternants are divided exactly by the Vandermonde factor by factor;
division is synthetic, hence exact, and any nonzero remainder raises.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from .partitions import Partition, as_partition, multiplicities
from .ratfun import ONE, RF_ONE, RatFun, TPoly, one_minus_t_pow, poly_divmod, rat_to_json
from .symfunc import SymFunc

# ---------------------------------------------------------------------------
# p-basis constructors


@lru_cache(maxsize=None)
def complete_h(k: int) -> SymFunc:
    """Complete homogeneous h_k in power sums."""
    if k < 0:
        return SymFunc.zero()
    if k == 0:
        return SymFunc.one()
    acc = SymFunc.zero()
    for i in range(1, k + 1):
        acc = acc + complete_h(k - i).times_p(i)
    return acc.scaled(Fraction(1, k))


@lru_cache(maxsize=None)
def elementary_e(k: int) -> SymFunc:
    """Elementary e_k in power sums."""
    if k < 0:
        return SymFunc.zero()
    if k == 0:
        return SymFunc.one()
    acc = SymFunc.zero()
    for i in range(1, k + 1):
        term = elementary_e(k - i).times_p(i)
        acc = acc + term if i % 2 == 1 else acc - term
    return acc.scaled(Fraction(1, k))


@lru_cache(maxsize=None)
def q_coefficient(k: int) -> SymFunc:
    """Mode q_k of H(u) E(-u/t): q_k = sum_s h_{k-s} e_s (-t)**s."""
    if k < 0:
        return SymFunc.zero()
    acc = SymFunc.zero()
    sign_t = RF_ONE
    minus_t = RatFun(TPoly.from_coeffs([0, -1]))
    for s in range(k + 1):
        acc = acc + (complete_h(k - s) * elementary_e(s)).scaled(sign_t)
        sign_t = sign_t * minus_t
    return acc


def hall_littlewood_row(k: int) -> SymFunc:
    """One-row Hall-Littlewood P_(k); equals q_k/(1-t) for k >= 1."""
    if k < 0:
        return SymFunc.zero()
    if k == 0:
        return SymFunc.one()
    return q_coefficient(k).scaled(RatFun(TPoly.from_coeffs([1]), one_minus_t_pow(1)))


def _det_entries(la: Partition, entry) -> SymFunc:
    """det[ entry(la_i - i + j) ] for i, j = 1..len(la), by cofactor recursion."""
    ell = len(la)
    if ell == 0:
        return SymFunc.one()

    @lru_cache(maxsize=None)
    def minor(cols: tuple[int, ...]) -> SymFunc:
        i = ell - len(cols)  # 0-based row index
        if not cols:
            return SymFunc.one()
        acc = SymFunc.zero()
        for pos, j in enumerate(cols):
            cell = entry(la[i] - (i + 1) + (j + 1))
            if cell.is_zero():
                continue
            sub = minor(cols[:pos] + cols[pos + 1 :])
            term = cell * sub
            acc = acc + term if pos % 2 == 0 else acc - term
        return acc

    return minor(tuple(range(ell)))


@lru_cache(maxsize=None)
def schur(la: Partition) -> SymFunc:
    """Schur function via the Jacobi-Trudi determinant det[h_{la_i-i+j}]."""
    la = as_partition(la)
    return _det_entries(la, complete_h)


@lru_cache(maxsize=None)
def dual_schur(la: Partition) -> SymFunc:
    """Dual basis element via the q-determinant det[q_{la_i-i+j}]."""
    la = as_partition(la)
    return _det_entries(la, q_coefficient)


@lru_cache(maxsize=None)
def hl_norm_factor(la: Partition) -> RatFun:
    """b_la(t) = prod over part values of prod_{j=1}^{mult} (1 - t**j).

    Dividing the raw vertex/generating-function coefficient for the
    Hall-Littlewood family by this factor yields the monic P_la.
    """
    b = RF_ONE
    for _, mult in multiplicities(la).items():
        for j in range(1, mult + 1):
            b = b * RatFun(one_minus_t_pow(j))
    return b


# ---------------------------------------------------------------------------
# finite-variable polynomials (exponent vector -> coefficient)

VarPoly = dict


def var_const(n: int, c: RatFun) -> VarPoly:
    if c.is_zero():
        return {}
    return {(0,) * n: c}


def var_add_into(acc: VarPoly, other: VarPoly, scale: RatFun = RF_ONE) -> None:
    for key, c in other.items():
        v = c * scale
        old = acc.get(key)
        s = v if old is None else old + v
        if s.is_zero():
            acc.pop(key, None)
        else:
            acc[key] = s


def var_mul(a: VarPoly, b: VarPoly) -> VarPoly:
    out: VarPoly = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            prod = ca * cb
            old = out.get(key)
            s = prod if old is None else old + prod
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
    return out


def power_sum_in_vars(k: int, n: int) -> VarPoly:
    out: VarPoly = {}
    for i in range(n):
        key = tuple(k if j == i else 0 for j in range(n))
        out[key] = RF_ONE
    return out


def expand_in_variables(f: SymFunc, n: int) -> VarPoly:
    """Substitute p_k -> x_1**k + ... + x_n**k and expand."""
    out: VarPoly = {}
    for la, c in f.terms.items():
        prod = var_const(n, RF_ONE)
        for part in la:
            prod = var_mul(prod, power_sum_in_vars(part, n))
        var_add_into(out, prod, c)
    return out


def _divide_linear(p: VarPoly, i: int, j: int, n: int) -> VarPoly:
    """Exact division of p by (x_i - x_j); raises if the remainder is nonzero."""
    buckets: dict[int, VarPoly] = {}
    top = 0
    for key, c in p.items():
        d = key[i]
        stripped = key[:i] + (0,) + key[i + 1 :]
        buckets.setdefault(d, {})[stripped] = c
        top = max(top, d)
    quotient: VarPoly = {}
    carry: VarPoly = {}
    for d in range(top, 0, -1):
        cur: VarPoly = dict(buckets.get(d, {}))
        shifted: VarPoly = {}
        for key, c in carry.items():
            shifted[key[:j] + (key[j] + 1,) + key[j + 1 :]] = c
        var_add_into(cur, shifted)
        for key, c in cur.items():
            quotient[key[:i] + (d - 1,) + key[i + 1 :]] = c
        carry = cur
    remainder: VarPoly = dict(buckets.get(0, {}))
    shifted = {}
    for key, c in carry.items():
        shifted[key[:j] + (key[j] + 1,) + key[j + 1 :]] = c
    var_add_into(remainder, shifted)
    if remainder:
        raise ArithmeticError("alternant not divisible by Vandermonde factor")
    return quotient


def _divide_vandermonde(p: VarPoly, n: int) -> VarPoly:
    for i in range(n):
        for j in range(i + 1, n):
            p = _divide_linear(p, i, j, n)
    return p


def schur_oracle(la, n: int) -> VarPoly:
    """Bialternant s_la(x_1..x_n) = det[x_i^(la_j+n-j)] / det[x_i^(n-j)]."""
    la = as_partition(la)
    if n < len(la):
        raise ValueError("need at least len(la) variables")
    exps = [la[j] + n - (j + 1) if j < len(la) else n - (j + 1) for j in range(n)]
    numerator: VarPoly = {}
    for sigma in permutations(range(n)):
        key = tuple(exps[sigma[i]] for i in range(n))
        sign = _perm_sign(sigma)
        var_add_into(numerator, {key: RatFun.from_int(sign)})
    return _divide_vandermonde(numerator, n)


def hall_littlewood_oracle(la, n: int) -> VarPoly:
    """P_la(x_1..x_n; t) from the symmetrisation definition.

    Computes sum_sigma sgn(sigma) sigma(x^la prod_{i<j} (x_i - t x_j)),
    divides exactly by the Vandermonde, and multiplies by the prefactor
    prod_{i>=0} prod_{j=1}^{m(i)} (1-t)/(1-t^j) with m(0) = n - len(la).
    The result always has polynomial coefficients in t.
    """
    la = as_partition(la)
    if n < len(la):
        raise ValueError("need at least len(la) variables")
    if n == 0:
        return var_const(0, RF_ONE)
    base: VarPoly = {tuple(la[i] if i < len(la) else 0 for i in range(n)): RF_ONE}
    minus_t = RatFun(TPoly.from_coeffs([0, -1]))
    for i in range(n):
        for j in range(i + 1, n):
            factor: VarPoly = {}
            ei = tuple(1 if k == i else 0 for k in range(n))
            ej = tuple(1 if k == j else 0 for k in range(n))
            factor[ei] = RF_ONE
            factor[ej] = minus_t
            base = var_mul(base, factor)
    symmetrized: VarPoly = {}
    for sigma in permutations(range(n)):
        sign = RatFun.from_int(_perm_sign(sigma))
        image = {tuple(key[sigma[i]] for i in range(n)): c for key, c in base.items()}
        var_add_into(symmetrized, image, sign)
    quotient = _divide_vandermonde(symmetrized, n)

    # the prefactor as num/den in Z[t]; each coefficient times num is
    # divided exactly by den, and a nonzero remainder raises
    num, den = ONE, ONE
    mults = multiplicities(la)
    mults[0] = n - len(la)
    for _, m in mults.items():
        for j in range(1, m + 1):
            num = num * one_minus_t_pow(1)
            den = den * one_minus_t_pow(j)
    out: VarPoly = {}
    for key, c in quotient.items():
        q, r = poly_divmod(TPoly(c.ne, c.nd) * num, TPoly(c.de, c.dd) * den)
        if r:
            raise ArithmeticError("Hall-Littlewood oracle produced a non-polynomial coefficient")
        out[key] = RatFun(q)
    return out


def _perm_sign(sigma: tuple[int, ...]) -> int:
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

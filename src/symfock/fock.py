"""Charged boson Fock space and mode-indexed vertex operators.

The Fock space is B = (+)_m B^(m) with B^(m) = z^m Lambda[t]; a vector is
a charge m together with a symmetric-function body.  Every vertex
operator used here is an instance of one kernel shape

    K(u) = R(u)**eps * exp( sum_n a_n p_n u**-n / n ) * exp( sum_n c_n d/dp_n u**n )

where R(u) (z^m f -> (z/u)**(m+1) f) and its inverse shift the charge.
Modes are indexed by the literal power of u extracted from K(u) v, so for
v = (m, f) the coefficient of u**j is

    charge m + eps,  body = sum_{r - k = j + eps*m + 1} A_k (C_r f)

with A_k the modes of the multiplication exponential and C_r the modes of
the derivation exponential.  C_r lowers degree by r, so the sum is finite
and K[j] v = 0 exactly when j + eps*m + 1 > deg f.

The derivation exponential is a translation (the translation identity):
exp(sum_n c_n d/dp_n u**n) sends p_n to p_n + c_n u**n, so

    exp(...) p_la = prod_i (p_{la_i} + c_{la_i} u**la_i),

and C_r p_la is a sum over the sub-multisets S of la of weight r: with
k_v of the m_v parts equal to v taken into S, the term is
prod_v binom(m_v, k_v) c_v**k_v times p_{la minus S}.  Each kernel keeps
that table once per la, and memoises mode actions under the key
(shift, la) with shift = j + eps*m + 1, the only way j and m enter.
The coefficients of one table share one denominator: with c_v = n_v/d_v
they are written over D_la = prod_v d_v**m_v, so every piece of a mode
body has the same denominator and the body's coefficients keep it (for
the deformed kernels D_la = prod_v (1-t^v)**m_v, of degree |la|; for the
others D_la = 1).

Kernel instances:

* fermion+ / fermion-   (a_n, c_n) = (1, -1) and (-1, +1): classical
  charged free fermions;
* twisted+ / twisted-   (1-t^n, -1) and (t^n-1, +1): the twisted fermions
  generating Hall-Littlewood data;
* deformed+ / deformed- (1-t^n, -1/(1-t^n)) and (t^n-1, 1/(1-t^n)): the
  images of the classical fermions under p_n -> (1-t^n) p_n.

Half-integer mode labels used in the vertex-algebra literature map to
this indexing by K_{k+1/2} <-> K[-+k]; the normal ordering below splits
the fermion+ modes at a <= -1 (applied outermost) versus a >= 0 (applied
innermost, with a fermionic sign), which is the unique split for which
every mode sum terminates on each vector.

An identity side is a plain function on Fock vectors, composed from the
mode actions above; `check_mode_identity` compares two sides on every
basis vector z^m p_la of a window.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Iterable

from .partitions import Partition, multiplicities, partitions_up_to
from .ratfun import RF_ONE, RatFun, rf_inv_one_minus_t_pow, rf_one_minus_t_pow
from .symfunc import SymFunc, linear_combination, symfunc_to_json

RF_MINUS_ONE = RatFun.from_int(-1)


class FockVector:
    """z^charge * body, an element of one graded component of B."""

    __slots__ = ("charge", "body")

    def __init__(self, charge: int, body: SymFunc):
        self.charge = charge
        self.body = body

    @classmethod
    def vacuum(cls) -> "FockVector":
        return cls(0, SymFunc.one())

    @classmethod
    def zero(cls, charge: int = 0) -> "FockVector":
        return cls(charge, SymFunc.zero())

    def is_zero(self) -> bool:
        return self.body.is_zero()

    def scaled(self, c) -> "FockVector":
        return FockVector(self.charge, self.body.scaled(c))

    def __add__(self, other: "FockVector") -> "FockVector":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.charge != other.charge:
            raise ValueError(f"charge mismatch: {self.charge} vs {other.charge}")
        return FockVector(self.charge, self.body + other.body)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + other.scaled(RF_MINUS_ONE)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FockVector):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return self.charge == other.charge and self.body == other.body

    def __repr__(self) -> str:
        return f"FockVector(charge={self.charge}, body={self.body!r})"


def fock_to_json(v: FockVector) -> dict:
    return {"charge": v.charge, "body": symfunc_to_json(v.body)}


class VertexKernel:
    """One charge-shifting vertex operator in the uniform exponential form."""

    def __init__(self, name: str, eps: int, a: Callable[[int], RatFun], c: Callable[[int], RatFun]):
        if eps not in (+1, -1):
            raise ValueError("eps must be +1 or -1")
        self.name = name
        self.eps = eps
        self.a = a
        self.c = c
        self._mult: list[SymFunc] = [SymFunc.one()]
        self._tables: dict[Partition, dict[int, list[tuple[RatFun, Partition]]]] = {}
        # keyed by (shift, la); an entry keeps the charge of its first request
        # and is re-wrapped for other charges
        self._modes: dict[tuple[int, Partition], FockVector] = {}

    def __repr__(self) -> str:
        return f"VertexKernel({self.name})"

    def mult_coefficient(self, k: int) -> SymFunc:
        """A_k: coefficient of u**-k in exp(sum a_n p_n u**-n / n)."""
        if k < 0:
            return SymFunc.zero()
        while len(self._mult) <= k:
            m = len(self._mult)
            acc = SymFunc.zero()
            for n in range(1, m + 1):
                acc = acc + self._mult[m - n].times_p(n).scaled(self.a(n))
            self._mult.append(acc.scaled(Fraction(1, m)).map_coeffs(lambda r: r.slim()))
        return self._mult[k]

    def translation_table(self, la: Partition) -> dict[int, list[tuple[RatFun, Partition]]]:
        """C_r p_la for every r, as {r: [(coeff, la minus S)]} over sub-multisets S of la.

        Taking k_v of the m_v parts equal to v contributes
        binom(m_v, k_v) c_v**k_v to the coefficient and v*k_v to r.  With
        c_v = n_v/d_v every coefficient is written over the one denominator
        D_la = prod_v d_v**m_v, as c_v**k_v = n_v**k_v d_v**(m_v-k_v) / d_v**m_v,
        on the packed and the scalar parts alike.
        """
        table = self._tables.get(la)
        if table is not None:
            return table
        # (r, numerator enc, numerator scalar, la minus S), all over (de, dd)
        terms: list[tuple[int, int, int, Partition]] = [(0, 1, 1, ())]
        de = dd = 1
        for v, mult in multiplicities(la).items():
            c = self.c(v)
            factors = [
                (comb(mult, k) * c.ne**k * c.de ** (mult - k), c.nd**k * c.dd ** (mult - k))
                for k in range(mult + 1)
            ]
            terms = [
                (r + v * k, ne * fe, nd * fd, rest + (v,) * (mult - k))
                for k, (fe, fd) in enumerate(factors)
                for r, ne, nd, rest in terms
            ]
            de *= c.de**mult
            dd *= c.dd**mult
        table = {}
        for r, ne, nd, rest in terms:
            table.setdefault(r, []).append((RatFun._raw(ne, nd, de, dd).slim(), rest))
        self._tables[la] = table
        return table

    def mode_on_basis(self, j: int, m: int, la: Partition) -> FockVector:
        """K[j] z^m p_la = z^(m+eps) sum_r A_(r-shift) C_r p_la, shift = j + eps*m + 1."""
        shift = j + self.eps * m + 1
        key = (shift, la)
        out = self._modes.get(key)
        if out is None:
            pieces = [
                (c, self.mult_coefficient(r - shift).times_monomial(rest))
                for r, terms in self.translation_table(la).items()
                if r >= shift
                for c, rest in terms
            ]
            body = linear_combination(pieces).map_coeffs(lambda c: c.slim())
            out = self._modes[key] = FockVector(m + self.eps, body)
        elif out.charge != m + self.eps:
            out = FockVector(m + self.eps, out.body)
        return out


def mode_apply(kernel: VertexKernel, j: int, v: FockVector) -> FockVector:
    """The coefficient of u**j in K(u) v."""
    if v.is_zero():
        return FockVector.zero(v.charge + kernel.eps)
    terms = v.body.terms
    if len(terms) == 1:
        ((la, c),) = terms.items()
        basis = kernel.mode_on_basis(j, v.charge, la)
        if c.ne == 1 and c.nd == 1 and c.de == 1 and c.dd == 1:
            return basis
        return basis.scaled(c)
    pieces = []
    for la, c in terms.items():
        basis = kernel.mode_on_basis(j, v.charge, la)
        if not basis.is_zero():
            pieces.append((c, basis.body))
    return FockVector(v.charge + kernel.eps, linear_combination(pieces))


FERMION_PLUS = VertexKernel("fermion+", +1, lambda n: RF_ONE, lambda n: RF_MINUS_ONE)
FERMION_MINUS = VertexKernel("fermion-", -1, lambda n: RF_MINUS_ONE, lambda n: RF_ONE)
TWISTED_PLUS = VertexKernel("twisted+", +1, rf_one_minus_t_pow, lambda n: RF_MINUS_ONE)
TWISTED_MINUS = VertexKernel(
    "twisted-", -1, lambda n: -rf_one_minus_t_pow(n), lambda n: RF_ONE
)
DEFORMED_PLUS = VertexKernel(
    "deformed+", +1, rf_one_minus_t_pow, lambda n: -rf_inv_one_minus_t_pow(n)
)
DEFORMED_MINUS = VertexKernel(
    "deformed-", -1, lambda n: -rf_one_minus_t_pow(n), rf_inv_one_minus_t_pow
)

KERNELS = {
    k.name: k
    for k in (
        FERMION_PLUS,
        FERMION_MINUS,
        TWISTED_PLUS,
        TWISTED_MINUS,
        DEFORMED_PLUS,
        DEFORMED_MINUS,
    )
}


def corrupted_kernel(base: VertexKernel) -> VertexKernel:
    """A deliberately wrong copy of a kernel (negative-control test hook)."""
    def bad_a(n: int, _orig=base.a) -> RatFun:
        return _orig(n) + RF_ONE if n == 2 else _orig(n)

    return VertexKernel(base.name + "-corrupt", base.eps, bad_a, base.c)


# ---------------------------------------------------------------------------
# normal-ordered bilinears in the classical fermions


def _normal_ordered_pair(
    pair_sum: int, v: FockVector, weight_fn: Callable[[int, int], Fraction] | None
) -> FockVector:
    """sum over a+b = pair_sum of w(a,b) :fermion+[a] fermion-[b]: applied to v.

    The split sends a <= -1 outermost and a >= 0 innermost with a minus
    sign; both branches terminate by the mode vanishing bound.
    """
    m, f = v.charge, v.body
    deg = f.degree()
    if deg < 0:
        return FockVector.zero(m)
    out = FockVector.zero(m)
    for a in range(pair_sum - (deg + m - 1), 0):
        b = pair_sum - a
        w = Fraction(1) if weight_fn is None else weight_fn(a, b)
        if w == 0:
            continue
        inner = mode_apply(FERMION_MINUS, b, v)
        if inner.is_zero():
            continue
        term = mode_apply(FERMION_PLUS, a, inner)
        if not term.is_zero():
            out = out + term.scaled(w)
    for a in range(0, deg - m):
        b = pair_sum - a
        w = Fraction(-1) if weight_fn is None else -weight_fn(a, b)
        if w == 0:
            continue
        inner = mode_apply(FERMION_PLUS, a, v)
        if inner.is_zero():
            continue
        term = mode_apply(FERMION_MINUS, b, inner)
        if not term.is_zero():
            out = out + term.scaled(w)
    return out


_heis_cache: dict[tuple[int, int, Partition], FockVector] = {}
_vir_cache: dict[tuple[Fraction, int, int, Partition], FockVector] = {}


def _bilinear_mode(cache: dict, key: tuple, k: int, v: FockVector, weight_fn) -> FockVector:
    """Mode k of a weighted fermion bilinear on v, memoised per basis vector
    under key + (charge, la)."""
    pieces = []
    for la, c in v.body.terms.items():
        full_key = (*key, v.charge, la)
        cached = cache.get(full_key)
        if cached is None:
            basis = FockVector(v.charge, SymFunc.monomial(la))
            cached = cache[full_key] = _normal_ordered_pair(k - 1, basis, weight_fn)
        if not cached.is_zero():
            pieces.append((c, cached.body))
    return FockVector(v.charge, linear_combination(pieces))


def heisenberg_mode(k: int, v: FockVector) -> FockVector:
    """alpha_k with alpha_{-n} = p_n, alpha_n = n d/dp_n (n > 0), alpha_0 = charge.

    Realised as the coefficient of u**(k-1) of the normal-ordered product
    :fermion+(u) fermion-(u): .
    """
    return _bilinear_mode(_heis_cache, (k,), k, v, None)


def twisted_heisenberg_mode(k: int, v: FockVector) -> FockVector:
    """h_k = alpha_k for k <= 0 and alpha_k/(1 - t**k) for k > 0."""
    out = heisenberg_mode(k, v)
    if k > 0 and not out.is_zero():
        out = out.scaled(rf_inv_one_minus_t_pow(k))
    return out


def virasoro_mode(beta: Fraction | int, k: int, v: FockVector) -> FockVector:
    """L^(beta)_k from the weighted fermion bilinear
    beta :dfermion+(u) fermion-(u): + (1-beta) :fermion+(u) dfermion-(u): .

    The derivative of the minus field is taken in the variable its modes
    are naturally indexed by, which is 1/u; together with the mode
    labelling fixed so the bracket closes with positive structure
    constants this makes the pair (a, b) with a + b = k - 1 enter with
    weight (1-beta)*b - beta*a.  The resulting modes satisfy

        [L_j, L_k] = (j - k) L_{j+k} + c/12 (j**3 - j) delta_{j,-k}

    with central charge c = -12 beta**2 + 12 beta - 2, and L_0 acts on
    the charge-m vacuum by m(m-1)/2 + beta*m.
    """
    beta = Fraction(beta)

    def w(a: int, b: int) -> Fraction:
        return (1 - beta) * b - beta * a

    return _bilinear_mode(_vir_cache, (beta, k), k, v, w)


# ---------------------------------------------------------------------------
# the generic identity checker

# one side of an identity: a linear operator given by its action on vectors
Operator = Callable[[FockVector], FockVector]


@dataclass(frozen=True)
class Verdict:
    equal: bool
    charge: int | None = None
    partition: Partition | None = None
    lhs: FockVector | None = None
    rhs: FockVector | None = None

    def witness_json(self) -> dict | None:
        if self.equal:
            return None
        return {
            "charge": self.charge,
            "p": list(self.partition),
            "lhs": fock_to_json(self.lhs),
            "rhs": fock_to_json(self.rhs),
        }


def check_mode_identity(
    lhs: Operator,
    rhs: Operator,
    max_degree: int,
    charges: Iterable[int],
) -> Verdict:
    """Evaluate both sides on every z^m p_la with m in charges, |la| <= max_degree.

    Returns the first discrepancy in the fixed enumeration order (charges
    ascending, partitions by weight then revlex) or equality.
    """
    for m in sorted(charges):
        for la in partitions_up_to(max_degree):
            v = FockVector(m, SymFunc.monomial(la))
            left = lhs(v)
            right = rhs(v)
            if left != right:
                return Verdict(False, m, la, left, right)
    return Verdict(True)

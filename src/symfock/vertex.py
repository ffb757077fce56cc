"""Symmetric-function bases built from vertex operators and from direct expansion.

Two independent routes produce the same families:

* ``basis_via_vertex`` applies creation modes of one kernel repeatedly to
  the vacuum.  Applying the plus kernel K at modes
  j_i = -la_i - (len - i + 1), innermost first (i = len down to 1),
  extracts the coefficient of z^len u_1^{-la_1-len} ... u_len^{-la_len-1}
  from K(u_1)...K(u_len)|0>; the nesting realises the expansion region
  |u_1| < ... < |u_len|.

* ``generating_coefficient_direct`` extracts the same coefficient of
  u_1^{-la_1} ... u_len^{-la_len} from the product

      prod_{i<j} R(u_i/u_j) * prod_i S(u_i)

  by eliminating one variable at a time, largest index first.  R is the
  pair series ((1-x) for the Schur and dual families, (1-x)/(1-tx) for
  the Hall-Littlewood family) and S the one-variable series whose modes
  are h_k resp. q_k.  Eliminating u_j turns every admissible choice of
  pair orders k_{ij} into a pending positive exponent on the earlier
  variables, so the state space is finite and the extraction exact.

Raw Hall-Littlewood coefficients carry the normalisation
b_la(t) = prod_v prod_{j<=mult(v)} (1-t^j); both routes divide it out and
return the monic P_la.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Callable

from .bases import (
    complete_h,
    elementary_e,
    hl_norm_factor,
    q_coefficient,
)
from .fock import (
    DEFORMED_PLUS,
    FERMION_PLUS,
    TWISTED_PLUS,
    FockVector,
    VertexKernel,
    mode_apply,
)
from .partitions import Partition, as_partition
from .ratfun import RF_ONE, RatFun
from .symfunc import SymFunc, linear_combination

_KERNELS: dict[str, VertexKernel] = {
    "schur": FERMION_PLUS,
    "hall_littlewood": TWISTED_PLUS,
    "dual_schur": DEFORMED_PLUS,
}


def basis_via_vertex(kind: str, la) -> SymFunc:
    """Build s_la, P_la or S_la by iterated vertex-operator modes."""
    la = as_partition(la)
    kernel = _kernel_for(kind)
    v = FockVector.vacuum()
    ell = len(la)
    for i in range(ell, 0, -1):
        v = mode_apply(kernel, -la[i - 1] - (ell - i + 1), v)
    if not v.is_zero() and v.charge != ell:
        raise AssertionError("vertex route produced an unexpected charge")
    body = v.body
    if kind == "hall_littlewood":
        body = body.scaled(hl_norm_factor(la).inverse())
    return body


def _kernel_for(kind: str) -> VertexKernel:
    try:
        return _KERNELS[kind]
    except KeyError:
        raise ValueError(f"unknown basis kind: {kind!r}") from None


# pair series r_k with sum_k r_k x^k = (1-x) resp. (1-x)/(1-tx)


def _pair_series_schur(k: int) -> RatFun:
    if k == 0:
        return RF_ONE
    if k == 1:
        return RatFun.from_int(-1)
    return RatFun.from_int(0)


def _pair_series_hl(k: int) -> RatFun:
    if k == 0:
        return RF_ONE
    # t**k - t**(k-1)
    return RatFun([0] * (k - 1) + [-1, 1])


_GENERATING_DATA: dict[str, tuple[Callable[[int], RatFun], Callable[[int], SymFunc]]] = {
    "schur": (_pair_series_schur, complete_h),
    "hall_littlewood": (_pair_series_hl, q_coefficient),
    "dual_schur": (_pair_series_schur, q_coefficient),
}


def _compositions_bounded(slots: int, cap: int):
    """All tuples of `slots` nonnegative ints with sum <= cap."""
    if slots == 0:
        yield ()
        return
    for first in range(cap + 1):
        for rest in _compositions_bounded(slots - 1, cap - first):
            yield (first,) + rest


def _extract_coefficient(
    la: Partition,
    pair_series: Callable[[int], RatFun],
    var_modes: Callable[[int], SymFunc],
) -> SymFunc:
    """Coefficient of u_1^-la_1 ... u_l^-la_l by variable-by-variable elimination."""
    ell = len(la)
    state: dict[tuple[int, ...], SymFunc] = {(0,) * ell: SymFunc.one()}
    for j in range(ell, 0, -1):
        pieces: dict[tuple[int, ...], list[tuple[RatFun, SymFunc]]] = {}
        for pending, acc in state.items():
            budget = la[j - 1] + pending[j - 1]
            for orders in _compositions_bounded(j - 1, budget):
                scale = RF_ONE
                for k in orders:
                    scale = scale * pair_series(k)
                    if scale.is_zero():
                        break
                if scale.is_zero():
                    continue
                key = tuple(pending[i] + orders[i] for i in range(j - 1))
                pieces.setdefault(key, []).append((scale, acc * var_modes(budget - sum(orders))))
        state = {key: linear_combination(pairs) for key, pairs in pieces.items()}
    return state.get((), SymFunc.zero())


def generating_coefficient_direct(kind: str, la) -> SymFunc:
    """Extract s_la, P_la or S_la from the multivariate generating product."""
    la = as_partition(la)
    if kind not in _GENERATING_DATA:
        raise ValueError(f"unknown generating kind: {kind!r}")
    pair_series, var_modes = _GENERATING_DATA[kind]
    out = _extract_coefficient(la, pair_series, var_modes)
    if kind == "hall_littlewood":
        out = out.scaled(hl_norm_factor(la).inverse())
    return out


# ---------------------------------------------------------------------------
# coefficient-level cross-checks relating the three generating products


def _e_at_minus_tu(s: int) -> RatFun:
    """Scalar (-t)**s accompanying e_s in the expansion of E(-tu)."""
    coeffs = [Fraction(0)] * s + [Fraction((-1) ** s)]
    return RatFun(coeffs)


@cache
def _convolved_var_modes(k: int) -> SymFunc:
    """Modes of H(u) E(-tu) assembled by explicit convolution of h and e modes."""
    return linear_combination((_e_at_minus_tu(s), complete_h(k - s) * elementary_e(s)) for s in range(k + 1))


def _convolved_pair_series_hl(k: int) -> RatFun:
    """(1-x) * geometric(tx) assembled by explicit convolution."""
    acc = RatFun.from_int(0)
    for s in (0, 1):
        if k - s < 0:
            continue
        geom = RatFun([0] * (k - s) + [1])  # t**(k-s)
        acc = acc + geom.scale(Fraction(-1 if s else 1))
    return acc


def crosscheck_corollaries(la) -> dict | None:
    """Verify, at the extracted-coefficient level, the two product relations

    (i)  the Hall-Littlewood product equals the Schur product multiplied by
         prod_{i<j} (1 - t u_i/u_j)^{-1} prod_i E(-t/u_i);
    (ii) the dual-Schur product equals the Schur product multiplied by
         prod_i E(-t/u_i),

    with E(u) = sum_s e_s u**s as in `bases` (the paper's E(-u_i/t)).

    The right-hand sides are assembled by explicit series convolution, the
    left-hand sides by the closed-form data of the families.  Returns None
    when both relations hold, else the witness {"la", "hl_equal",
    "dual_equal"}.
    """
    la = as_partition(la)
    hl_direct = _extract_coefficient(la, _pair_series_hl, q_coefficient)
    hl_composed = _extract_coefficient(la, _convolved_pair_series_hl, _convolved_var_modes)
    dual_direct = _extract_coefficient(la, _pair_series_schur, q_coefficient)
    dual_composed = _extract_coefficient(la, _pair_series_schur, _convolved_var_modes)
    hl_equal, dual_equal = hl_direct == hl_composed, dual_direct == dual_composed
    return None if hl_equal and dual_equal else {"la": list(la), "hl_equal": hl_equal, "dual_equal": dual_equal}

"""Classical bases against independent finite-variable oracles."""

from fractions import Fraction
from itertools import permutations

import pytest

from symfock.bases import (
    _divide_qint,
    _divide_vandermonde,
    complete_h,
    dual_schur,
    elementary_e,
    expand_in_variables,
    hall_littlewood_oracle,
    hall_littlewood_row,
    q_coefficient,
    schur,
    schur_oracle,
)
from symfock.partitions import partitions_of, partitions_up_to
from symfock.ratfun import RatFun, rf_one_minus_t_pow
from symfock.symfunc import SymFunc, scalar_product

p = SymFunc.p
mono = SymFunc.monomial
half = Fraction(1, 2)


def test_h_examples():
    assert complete_h(0) == SymFunc.one()
    assert complete_h(1) == p(1)
    assert complete_h(2) == mono((1, 1), half) + mono((2,), half)


def test_h2_against_two_variable_expansion():
    # h_2(x_1, x_2) enumerates the degree-2 multisets directly
    want = {(2, 0): RatFun.from_int(1), (1, 1): RatFun.from_int(1), (0, 2): RatFun.from_int(1)}
    assert expand_in_variables(complete_h(2), 2) == want


def test_e_examples():
    assert elementary_e(1) == p(1)
    assert elementary_e(2) == mono((1, 1), half) - mono((2,), half)
    assert elementary_e(3) == (
        mono((1, 1, 1), Fraction(1, 6))
        - mono((2, 1), half)
        + mono((3,), Fraction(1, 3))
    )
    assert expand_in_variables(elementary_e(2), 1) == {}


def test_he_convolution_vanishes():
    # modes of H(u)E(-u) = 1
    for k in range(1, 11):
        acc = SymFunc.zero()
        for s in range(k + 1):
            term = elementary_e(s) * complete_h(k - s)
            acc = acc + term if s % 2 == 0 else acc - term
        assert acc.is_zero()


def test_h_e_are_one_row_one_column_schur():
    for k in range(9):
        assert complete_h(k) == schur((k,) if k else ())
        assert elementary_e(k) == schur((1,) * k)


def test_schur_examples():
    assert schur(()) == SymFunc.one()
    assert schur((1, 1)) == elementary_e(2)
    assert schur((2, 1)) == mono((1, 1, 1), Fraction(1, 3)) - mono((3,), Fraction(1, 3))


def test_schur_oracle_examples():
    one = RatFun.from_int(1)
    assert schur_oracle((1,), 2) == {(1, 0): one, (0, 1): one}
    assert schur_oracle((1, 1), 2) == {(1, 1): one}
    assert schur_oracle((2,), 2) == {(2, 0): one, (1, 1): one, (0, 2): one}


def test_schur_matches_bialternant():
    for la in partitions_up_to(5):
        if not la:
            continue
        n = sum(la)
        assert expand_in_variables(schur(la), n) == schur_oracle(la, n)


def test_schur_oracle_needs_enough_variables():
    with pytest.raises(ValueError):
        schur_oracle((2, 1, 1), 2)


def test_q_examples():
    assert q_coefficient(0) == SymFunc.one()
    assert q_coefficient(1) == mono((1,), rf_one_minus_t_pow(1))
    # q_2 = h_2 - t e_1 h_1 + t^2 e_2
    t = RatFun([0, 1])
    explicit = complete_h(2) - (elementary_e(1) * complete_h(1)).scaled(t) + elementary_e(2).scaled(t * t)
    assert q_coefficient(2) == explicit


def test_q_specializes_to_h_at_t0():
    for k in range(7):
        assert q_coefficient(k).specialize_t(0) == complete_h(k)


def test_hall_littlewood_row():
    assert hall_littlewood_row(0) == SymFunc.one()
    assert hall_littlewood_row(1) == p(1)
    assert hall_littlewood_row(2).specialize_t(0) == complete_h(2)
    assert mono((2,), rf_one_minus_t_pow(1)).is_zero() is False
    assert hall_littlewood_row(3).scaled(rf_one_minus_t_pow(1)) == q_coefficient(3)


def test_dual_schur_examples():
    assert dual_schur(()) == SymFunc.one()
    assert dual_schur((1,)) == mono((1,), rf_one_minus_t_pow(1))
    for la in partitions_up_to(5):
        assert dual_schur(la).specialize_t(0) == schur(la)


def test_dual_schur_is_substituted_schur():
    for la in partitions_up_to(6):
        assert dual_schur(la) == schur(la).scale_p(rf_one_minus_t_pow)


def test_duality_gram_matrix():
    for w in range(5):
        las = list(partitions_of(w))
        for la in las:
            for mu in las:
                v = scalar_product(dual_schur(la), schur(mu), deformed=True)
                assert v == RatFun.from_int(1 if la == mu else 0)


def test_hl_oracle_examples():
    one = RatFun.from_int(1)
    assert hall_littlewood_oracle((1,), 2) == {(1, 0): one, (0, 1): one}
    got = hall_littlewood_oracle((2,), 2)
    omt = RatFun([1, -1])
    assert got == {(2, 0): one, (0, 2): one, (1, 1): omt}


def test_hl_oracle_t0_is_schur():
    for la in partitions_up_to(4):
        if not la:
            continue
        n = sum(la)
        got = hall_littlewood_oracle(la, n)
        specialised = {
            key: RatFun.from_fraction(c.eval_at(0)) for key, c in got.items()
        }
        specialised = {k: c for k, c in specialised.items() if not c.is_zero()}
        assert specialised == schur_oracle(la, n)


def test_hl_oracle_stable_under_extra_variable():
    # appending a zero variable restricts to the smaller oracle
    for la in [(1,), (2,), (2, 1)]:
        n = sum(la)
        big = hall_littlewood_oracle(la, n + 1)
        restricted = {}
        for key, c in big.items():
            if key[-1] == 0:
                restricted[key[:-1]] = c
        assert restricted == hall_littlewood_oracle(la, n)


def test_vandermonde_division_raises_on_a_remainder():
    # keys of x_1^a x_2^b in base 4 are a + 4b: x_1^3 is homogeneous of
    # degree 3 and not alternating, and its remainder x_2^3 sits at the top
    # of the base, where a carry would alias it to another key
    with pytest.raises(ArithmeticError):
        _divide_vandermonde({3: 1}, 2, 4)
    # x_1^3 - x_2^3 = (x_1 - x_2)(x_1^2 + x_1 x_2 + x_2^2)
    assert _divide_vandermonde({3: 1, 12: -1}, 2, 4) == {2: 1, 5: 1, 8: 1}
    # (x_1 - x_2) x_3^4 in base 6: the first factor divides, x_1 - x_3 does not
    with pytest.raises(ArithmeticError):
        _divide_vandermonde({1 + 4 * 36: 1, 6 + 4 * 36: -1}, 3, 6)


def test_qint_division_raises_on_a_remainder():
    # [2]_t = 1 + t: 1 - t^2 = (1 + t)(1 - t), while 1 + t^2 leaves 2
    assert _divide_qint([1, 0, -1], 2) == [1, -1]
    assert _divide_qint([1, 2, 2, 1], 3) == [1, 1]
    with pytest.raises(ArithmeticError):
        _divide_qint([1, 0, 1], 2)


# small (la, n) cases checked against sympy's own symmetrisation
SYMPY_CASES = [((1,), 2), ((2, 1), 3), ((1, 1), 3), ((2,), 3), ((3, 1), 4), ((2, 2), 4)]


def _sympy_value(sp, xs, t, p):
    """A VarPoly as a sympy expression in xs and t."""
    out = 0
    for key, c in p.items():
        num = sum(sp.Rational(str(v)) * t**k for k, v in enumerate(c.num))
        den = sum(sp.Rational(str(v)) * t**k for k, v in enumerate(c.den))
        out += num / den * sp.Mul(*(x**e for x, e in zip(xs, key)))
    return out


@pytest.mark.parametrize("la, n", SYMPY_CASES, ids=str)
def test_oracles_match_sympy(la, n):
    sp = pytest.importorskip("sympy")
    from sympy.combinatorics import Permutation

    xs = sp.symbols(f"x1:{n + 1}")
    t = sp.Symbol("t")
    parts = list(la) + [0] * (n - len(la))
    vandermonde = sp.Mul(*(xs[i] - xs[j] for i in range(n) for j in range(i + 1, n)))
    # s_la = det[x_i^(la_j + n - j)] / det[x_i^(n - j)]
    alternant = sp.Matrix(n, n, lambda i, j: xs[i] ** (parts[j] + n - 1 - j)).det()
    want = sp.cancel(alternant / vandermonde)
    assert sp.expand(want - _sympy_value(sp, xs, t, schur_oracle(la, n))) == 0
    # P_la = prod_i prod_{j<=m(i)} (1-t)/(1-t^j) sum_w sgn(w) w(x^la prod_{i<j} (x_i - t x_j)) / vandermonde
    base = sp.Mul(*(x**e for x, e in zip(xs, parts)))
    base *= sp.Mul(*(xs[i] - t * xs[j] for i in range(n) for j in range(i + 1, n)))
    total = 0
    for perm in permutations(range(n)):
        image = base.xreplace({xs[i]: xs[perm[i]] for i in range(n)})
        total += Permutation(list(perm)).signature() * image
    prefactor = 1
    for part in set(parts):
        for j in range(1, parts.count(part) + 1):
            prefactor *= (1 - t) / (1 - t**j)
    want = sp.cancel(sp.cancel(total / vandermonde) * prefactor)
    assert sp.cancel(want - _sympy_value(sp, xs, t, hall_littlewood_oracle(la, n))) == 0

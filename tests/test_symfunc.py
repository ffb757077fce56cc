"""Ring operations, scalar products, adjoints on the power-sum presentation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symfock.partitions import partitions_of, partitions_up_to, z_factor
from symfock.ratfun import RF_T, RF_ZERO, RatFun, rf_inv_one_minus_t_pow, rf_one_minus_t_pow
from symfock.symfunc import (
    SymFunc,
    linear_combination,
    perp_apply,
    scalar_product,
    symfunc_from_json,
    symfunc_to_json,
)

p = SymFunc.p
mono = SymFunc.monomial


def test_multiply_examples():
    assert p(1) * p(1) == mono((1, 1))
    f = mono((2, 1), Fraction(3, 2)) + p(3)
    assert SymFunc.one() * f == f
    assert (p(1) + p(2)) * (p(1) - p(2)) == mono((1, 1)) - mono((2, 2))


def test_diff_examples():
    assert mono((1, 1)).diff_p(1) == p(1).scaled(2)
    assert p(1).diff_p(2).is_zero()
    assert mono((3, 3, 1)).diff_p(3) == mono((3, 1)).scaled(2)


def test_scale_p_examples():
    f = mono((2, 1))
    scaled = f.scale_p(rf_one_minus_t_pow)
    assert scaled == mono((2, 1), rf_one_minus_t_pow(2) * rf_one_minus_t_pow(1))
    assert f.scale_p(lambda n: RatFun.from_int(1)) == f
    back = scaled.scale_p(rf_inv_one_minus_t_pow)
    assert back == f


def test_scale_p_is_ring_hom():
    f = p(1) + mono((2, 1), Fraction(1, 3))
    g = p(2) - mono((1, 1))
    sig = rf_one_minus_t_pow
    assert (f * g).scale_p(sig) == f.scale_p(sig) * g.scale_p(sig)


def test_scalar_product_examples():
    assert scalar_product(p(1), p(1)) == RatFun.from_int(1)
    expected = rf_inv_one_minus_t_pow(2).scale(Fraction(2))
    assert scalar_product(p(2), p(2), deformed=True) == expected
    assert scalar_product(p(1), p(2)).is_zero()


def test_scalar_product_monomials_z_factor():
    for w in range(5):
        for la in partitions_of(w):
            for mu in partitions_of(w):
                v = scalar_product(mono(la), mono(mu))
                if la == mu:
                    assert v == RatFun.from_int(z_factor(la))
                else:
                    assert v.is_zero()


def test_scalar_product_grading():
    assert scalar_product(p(1), mono((1, 1))).is_zero()
    assert scalar_product(p(3), mono((2, 1)), deformed=True) != scalar_product(
        p(3), p(3), deformed=True
    )


def test_perp_examples():
    assert perp_apply(p(1), p(1)) == SymFunc.one()
    assert perp_apply(p(2), mono((2, 1))) == p(1).scaled(2)
    # e_2-perp of e_2 equals <e_2, e_2> = 1, brute-forced through the p-basis
    e2 = mono((1, 1), Fraction(1, 2)) - p(2).scaled(Fraction(1, 2))
    assert scalar_product(e2, e2) == RatFun.from_int(1)
    assert perp_apply(e2, e2) == SymFunc.one()
    # 4 p_1-perp and p_2-perp send p_21 + p_22 to opposite multiples of p_2
    f = p(1).scaled(4) - p(2)
    assert perp_apply(f, mono((2, 1)) + mono((2, 2))).terms == {(1,): RatFun.from_int(-2)}


def test_adjointness_both_products():
    # <f-perp g, w> = <g, f w> over homogeneous monomial triples
    for deformed in (False, True):
        for a in range(1, 4):
            for b in range(0, 3):
                for fa in partitions_of(a):
                    for wb in partitions_of(b):
                        f, w = mono(fa), mono(wb)
                        fw = f * w
                        for g in map(mono, partitions_of(a + b)):
                            lhs = scalar_product(perp_apply(f, g, deformed), w, deformed)
                            rhs = scalar_product(g, fw, deformed)
                            assert lhs == rhs


small_coeff = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def qt_coeffs(draw):
    """c t**a, divided by (1 - t**k) when k > 0: nonzero, with unequal scalar
    and t-denominators across draws."""
    c = RatFun.from_fraction(draw(small_coeff.filter(bool)))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        c = c * RF_T
    k = draw(st.integers(min_value=0, max_value=3))
    return c * rf_inv_one_minus_t_pow(k) if k else c


@st.composite
def symfuncs(draw, max_weight=4, max_terms=3, coeffs=small_coeff):
    pool = list(partitions_up_to(max_weight))
    n = draw(st.integers(min_value=0, max_value=max_terms))
    f = SymFunc.zero()
    for _ in range(n):
        la = draw(st.sampled_from(pool))
        c = draw(coeffs)
        f = f + mono(la, c)
    return f


@settings(max_examples=60, deadline=None)
@given(symfuncs(), symfuncs(), symfuncs())
def test_ring_axioms(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.one_of(st.just(RF_ZERO), qt_coeffs()), symfuncs(coeffs=qt_coeffs())), max_size=4),
    st.booleans(),
)
def test_linear_combination_is_the_fold_of_scaled_sums(pairs, cancel):
    if cancel:
        # every pair once more with the opposite coefficient: the sum is zero
        pairs = pairs + [(-c, f) for c, f in pairs]
    folded = SymFunc.zero()
    for c, f in pairs:
        folded = folded + f.scaled(c)
    got = linear_combination(pairs)
    assert got == folded
    assert not any(v.is_zero() for v in got.terms.values())
    assert got.is_zero() or not cancel


@settings(max_examples=60, deadline=None)
@given(symfuncs(coeffs=qt_coeffs()), symfuncs(coeffs=qt_coeffs()), st.integers(min_value=1, max_value=4))
def test_diff_p_obeys_leibniz(f, g, n):
    assert (f * g).diff_p(n) == f.diff_p(n) * g + f * g.diff_p(n)
    assert not any(v.is_zero() for v in f.diff_p(n).terms.values())


@settings(max_examples=40, deadline=None)
@given(symfuncs(), symfuncs())
def test_scalar_product_symmetric(f, g):
    assert scalar_product(f, g) == scalar_product(g, f)
    assert scalar_product(f, g, deformed=True) == scalar_product(g, f, deformed=True)


def _perp_by_derivations(f, g, deformed):
    """f-perp g with p_n-perp = n d/dp_n, or n/(1 - t**n) d/dp_n when deformed."""
    out = SymFunc.zero()
    for mu, c in f.terms.items():
        term = g
        for n in mu:
            term = term.diff_p(n).scaled(n)
            if deformed:
                term = term.scaled(rf_inv_one_minus_t_pow(n))
        out = out + term.scaled(c)
    return out


@settings(max_examples=60, deadline=None)
@given(
    symfuncs(max_terms=4, coeffs=qt_coeffs()),
    symfuncs(max_weight=6, max_terms=5, coeffs=qt_coeffs()),
    st.booleans(),
)
def test_perp_matches_derivations(f, g, deformed):
    got = perp_apply(f, g, deformed)
    assert got == _perp_by_derivations(f, g, deformed)
    assert not any(c.is_zero() for c in got.terms.values())
    assert perp_apply(f, g - g, deformed).terms == {}
    # f's memoised plan is f's own: a scaled copy and the other product get theirs
    assert perp_apply(f.scaled(2), g, deformed) == got.scaled(2)
    assert perp_apply(f, g, not deformed) == _perp_by_derivations(f, g, not deformed)
    assert perp_apply(f, g, deformed) == got


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from([la for la in partitions_up_to(3) if la]), min_size=2, max_size=2, unique=True),
    st.sampled_from(list(partitions_up_to(3))),
    qt_coeffs(),
    symfuncs(max_weight=3, max_terms=2, coeffs=qt_coeffs()),
    st.booleans(),
)
def test_perp_bucket_sums_cancel(mus, rho, c, extra, deformed):
    # f = c p_mu1 - c (a1/a2) p_mu2 sends g = p_mu1 p_rho + p_mu2 p_rho to
    # a sum whose p_rho coefficient c a1 - c (a1/a2) a2 cancels in its bucket
    mu1, mu2 = mus
    g = mono(mu1).times_monomial(rho) + mono(mu2).times_monomial(rho)
    a1 = perp_apply(mono(mu1), mono(mu1).times_monomial(rho), deformed).terms[rho]
    a2 = perp_apply(mono(mu2), mono(mu2).times_monomial(rho), deformed).terms[rho]
    f = mono(mu1, c) - mono(mu2, c * a1 / a2) + extra
    got = perp_apply(f, g, deformed)
    assert got == _perp_by_derivations(f, g, deformed)
    assert not any(v.is_zero() for v in got.terms.values())
    if not extra:
        assert rho not in got.terms


def test_specialize_t():
    f = mono((2,), rf_one_minus_t_pow(2))
    assert f.specialize_t(0) == mono((2,))
    assert f.specialize_t(1).is_zero()
    with pytest.raises(ZeroDivisionError):
        mono((1,), rf_inv_one_minus_t_pow(1)).specialize_t(1)


def test_json_roundtrip():
    f = mono((2, 1), Fraction(-5, 3)) + mono((4,), rf_inv_one_minus_t_pow(2))
    assert symfunc_from_json(symfunc_to_json(f)) == f
    assert symfunc_to_json(SymFunc.zero()) == {"terms": []}


def test_json_term_order_is_weight_then_revlex():
    f = mono((1, 1, 1)) + mono((3,)) + mono((2, 1)) + SymFunc.one()
    ps = [tuple(entry["p"]) for entry in symfunc_to_json(f)["terms"]]
    assert ps == [(), (3,), (2, 1), (1, 1, 1)]


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        symfunc_from_json({"terms": [{"p": [1, 2], "coeff": {"num": ["1"], "den": ["1"]}}]})
    with pytest.raises(ValueError):
        symfunc_from_json({"nope": []})
    with pytest.raises(ValueError):
        symfunc_from_json(
            {
                "terms": [
                    {"p": [1], "coeff": {"num": ["1"], "den": ["1"]}},
                    {"p": [1], "coeff": {"num": ["2"], "den": ["1"]}},
                ]
            }
        )

"""Route agreement for the vertex and generating-function constructions."""

from fractions import Fraction

import pytest

from symfock.bases import (
    dual_schur,
    expand_in_variables,
    hall_littlewood_oracle,
    hall_littlewood_row,
    q_coefficient,
    schur,
)
from symfock.partitions import partitions_up_to
from symfock.ratfun import RatFun, rf_one_minus_t_pow
from symfock.symfunc import SymFunc, scalar_product, symfunc_to_json
from symfock.vertex import (
    _convolved_var_modes,
    basis_via_vertex,
    crosscheck_corollaries,
    generating_coefficient_direct,
)


def test_empty_partition_is_one():
    for kind in ("schur", "hall_littlewood", "dual_schur"):
        assert basis_via_vertex(kind, ()) == SymFunc.one()
        assert generating_coefficient_direct(kind, ()) == SymFunc.one()


def test_schur_vertex_examples():
    assert basis_via_vertex("schur", (2, 1)) == schur((2, 1))
    assert basis_via_vertex("dual_schur", (1,)) == SymFunc.monomial((1,), rf_one_minus_t_pow(1))


def test_generating_examples():
    for k in range(5):
        la = (k,) if k else ()
        assert generating_coefficient_direct("schur", la) == schur(la)
    assert generating_coefficient_direct("hall_littlewood", (1,)) == hall_littlewood_row(1)
    assert generating_coefficient_direct("dual_schur", (1,)) == dual_schur((1,))


def test_schur_three_routes():
    for la in partitions_up_to(6):
        a = basis_via_vertex("schur", la)
        b = generating_coefficient_direct("schur", la)
        assert a == b == schur(la)


def test_hall_littlewood_routes_and_oracle():
    for la in partitions_up_to(4):
        a = basis_via_vertex("hall_littlewood", la)
        b = generating_coefficient_direct("hall_littlewood", la)
        assert a == b
        if la:
            n = sum(la)
            assert expand_in_variables(a, n) == hall_littlewood_oracle(la, n)


def test_hall_littlewood_rows_match():
    for k in range(1, 6):
        assert basis_via_vertex("hall_littlewood", (k,)) == hall_littlewood_row(k)


def test_dual_schur_four_routes():
    for la in partitions_up_to(5):
        a = basis_via_vertex("dual_schur", la)
        b = generating_coefficient_direct("dual_schur", la)
        c = dual_schur(la)
        d = schur(la).scale_p(rf_one_minus_t_pow)
        assert a == b == c == d


def test_duality_of_routes():
    for w in range(4):
        las = [la for la in partitions_up_to(w) if sum(la) == w]
        for la in las:
            S = basis_via_vertex("dual_schur", la)
            for mu in las:
                v = scalar_product(S, schur(mu), deformed=True)
                assert v == RatFun.from_int(1 if la == mu else 0)


def test_t0_specialisation_collapses_to_schur():
    for la in partitions_up_to(4):
        assert basis_via_vertex("dual_schur", la).specialize_t(0) == schur(la)
        assert basis_via_vertex("hall_littlewood", la).specialize_t(0) == schur(la)


def test_crosscheck_corollaries():
    for la in partitions_up_to(4):
        assert crosscheck_corollaries(la) is None, la


def test_q_power_sum_form_is_the_convolution():
    # bases builds q_k without h or e; vertex convolves h_{k-s} e_s (-t)**s
    for k in range(9):
        assert q_coefficient(k) == _convolved_var_modes(k)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        basis_via_vertex("nope", (1,))
    with pytest.raises(ValueError):
        generating_coefficient_direct("nope", (1,))


@pytest.mark.parametrize("la", [(5, 2, 2, 1), (4, 4, 1, 1), (4, 2, 2, 2), (3, 3, 3, 1)])
def test_dual_schur_vertex_route_matches_det(la):
    # serialising reduces every coefficient; on these partitions the
    # quotients by the gcds exceed the 2**64 input cap
    assert symfunc_to_json(basis_via_vertex("dual_schur", la)) == symfunc_to_json(dual_schur(la))

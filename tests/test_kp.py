"""The bilinear identity: tau certificates and counterexamples."""

from fractions import Fraction
from math import prod

import pytest

from symfock.bases import dual_schur, schur
from symfock.fock import DEFORMED_MINUS, DEFORMED_PLUS, FERMION_MINUS, FERMION_PLUS, FockVector, mode_apply
from symfock.kp import is_tau, omega_apply, search_negative_control, tensor_to_json
from symfock.partitions import partitions_up_to
from symfock.ratfun import RF_ONE, RF_T, rf_inv_one_minus_t_pow, rf_one_minus_t_pow
from symfock.symfunc import SymFunc


def test_omega_trivial_cases():
    assert omega_apply(SymFunc.one(), SymFunc.one()) == {}
    assert is_tau(SymFunc.zero())
    assert is_tau(SymFunc.one())
    assert is_tau(SymFunc.one(), deformed=True)


def test_p1_is_tau():
    # the admissible mode window is nonempty but every pairing cancels
    assert omega_apply(SymFunc.p(1), SymFunc.p(1)) == {}


def test_schur_are_tau():
    for la in partitions_up_to(6):
        assert is_tau(schur(la)), la


def test_dual_schur_are_deformed_tau():
    for la in partitions_up_to(5):
        assert is_tau(dual_schur(la), deformed=True), la


def test_perturbed_rectangle_violates():
    tau = SymFunc.one() + schur((2, 2)) + schur((2,)).scaled(Fraction(3))
    terms = omega_apply(tau, tau)
    assert terms
    payload = tensor_to_json(terms)
    assert payload["left_charge"] == 1 and payload["right_charge"] == -1
    assert payload["terms"]


def test_search_negative_control():
    found = search_negative_control(4)
    assert found is not None
    tau, terms = found
    assert terms
    assert not is_tau(tau)
    # from weight 2 on, some s_la + s_mu fails (s_2 + s_11 does), so no
    # witness needs a constant term
    for degree_bound in range(2, 6):
        tau, _ = search_negative_control(degree_bound)
        assert () not in tau.terms, degree_bound
        assert not is_tau(tau), degree_bound


def test_search_empty_space_returns_none():
    assert search_negative_control(0) is None
    assert search_negative_control(1) is None


def test_omega_bilinear():
    f = schur((2, 1)) + SymFunc.p(1)
    g = schur((2,)) + SymFunc.one()
    whole = omega_apply(f + g, f + g)
    acc = {}
    for x in (f, g):
        for y in (f, g):
            for key, c in omega_apply(x, y).items():
                cur = acc.get(key)
                s = c if cur is None else cur + c
                if s.is_zero():
                    acc.pop(key, None)
                else:
                    acc[key] = s
    assert whole == acc


def test_is_tau_scale_invariant():
    tau = schur((3, 1))
    assert is_tau(tau.scaled(Fraction(7, 3))) == is_tau(tau)
    non = SymFunc.one() + schur((2, 2)) + schur((2,)).scaled(Fraction(3))
    assert is_tau(non.scaled(Fraction(-5))) == is_tau(non)


def test_deformed_equivariance():
    # Omega_t(sigma f (x) sigma g) = (sigma (x) sigma) Omega(f (x) g); sigma sends
    # p_la to sigma_la p_la with sigma_la = prod_i (1 - t**la_i), so the (la, mu)
    # coefficient of the right side is sigma_la sigma_mu times that of Omega(f (x) g)
    sig = rf_one_minus_t_pow

    def sigma(la):
        return prod(map(sig, la), start=RF_ONE)

    for f, g in [
        (schur((2, 1)) + SymFunc.p(1), schur((2,)) + SymFunc.one()),
        (SymFunc.p(1) * SymFunc.p(1), schur((1, 1))),
        (schur((2, 2)), SymFunc.one() + schur((1,))),
    ]:
        lhs = omega_apply(f.scale_p(sig), g.scale_p(sig), deformed=True)
        rhs = {(la, mu): c * sigma(la) * sigma(mu) for (la, mu), c in omega_apply(f, g, deformed=False).items()}
        assert rhs
        assert lhs == rhs


def test_tensor_json_shape():
    tau = SymFunc.one() + schur((2, 2)) + schur((2,)).scaled(Fraction(3))
    payload = tensor_to_json(omega_apply(tau, tau))
    for entry in payload["terms"]:
        assert set(entry) == {"left", "right", "coeff"}


# tau candidates for the diagonal-mode oracle: taus, non-taus, and
# coefficients with t-denominators (whose lcm is pulled out in front)
ORACLE_TAUS = [
    *(schur(la) for la in partitions_up_to(6)),
    *(dual_schur(la) for la in partitions_up_to(5)),
    SymFunc.one() + schur((2, 2)) + schur((2,)).scaled(Fraction(3)),
    dual_schur((3, 1)) + dual_schur((2, 2)),
    schur((2, 1))
    + SymFunc.monomial((2,), rf_inv_one_minus_t_pow(1))
    + SymFunc.monomial((1, 1, 1), RF_T * rf_inv_one_minus_t_pow(2)),
]


@pytest.mark.parametrize(
    "plus, minus",
    [(FERMION_PLUS, FERMION_MINUS), (DEFORMED_PLUS, DEFORMED_MINUS)],
    ids=["classical", "deformed"],
)
def test_diagonal_modes_from_translations_match_mode_apply(plus, minus):
    # omega_apply reads plus[a] tau and minus[-1-a] tau off one translation
    # per leg; mode_apply on the charge-0 vector is the reference
    for tau in ORACLE_TAUS:
        left, right = plus.translate(tau), minus.translate(tau)
        d = tau.degree()
        for a in range(-d - 1, d + 1):
            v = FockVector(0, tau)
            assert plus.mode_body(a + 1, left) == mode_apply(plus, a, v).body, (tau, a)
            assert minus.mode_body(-a, right) == mode_apply(minus, -1 - a, v).body, (tau, a)

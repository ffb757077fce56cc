"""Mode actions of the vertex kernels and the derived operator algebras."""

from contextlib import contextmanager
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symfock import fock
from symfock.bases import complete_h, dual_schur, elementary_e, q_coefficient, schur
from symfock.fock import (
    DEFORMED_MINUS,
    DEFORMED_PLUS,
    FERMION_MINUS,
    FERMION_PLUS,
    TWISTED_MINUS,
    TWISTED_PLUS,
    KERNELS,
    Column,
    FockVector,
    alpha,
    check_mode_identity,
    combine,
    corrupted_kernel,
    diagonal,
    mode_apply,
    twisted_alpha,
    virasoro,
)
from symfock.partitions import multiplicities, partitions_of, partitions_up_to, weight
from symfock.ratfun import (
    PackingOverflow,
    RatFun,
    _limbs,
    rat_to_json,
    rf_inv_one_minus_t_pow,
    rf_one_minus_t_pow,
)
from symfock.symfunc import SymFunc, linear_combination, perp_apply

RF_T = RatFun([0, 1])
vac = FockVector.vacuum


def KK(k1, x, k2, y, v):
    """k1[x] k2[y] v"""
    return mode_apply(k1, x, mode_apply(k2, y, v))


def test_mode_apply_vacuum_examples():
    r = mode_apply(FERMION_PLUS, -1, vac())
    assert (r.charge, r.body) == (1, SymFunc.one())
    assert mode_apply(FERMION_PLUS, 0, vac()).is_zero()
    assert mode_apply(FERMION_PLUS, 3, vac()).is_zero()
    r = mode_apply(FERMION_MINUS, -1, vac())
    assert (r.charge, r.body) == (-1, SymFunc.one())


def test_mode_apply_generates_h_and_e():
    for k in range(5):
        r = mode_apply(FERMION_PLUS, -k - 1, vac())
        assert r.body == complete_h(k)
        r = mode_apply(FERMION_MINUS, -k - 1, vac())
        assert r.body == elementary_e(k).scaled(Fraction((-1) ** k))


def _mult_reference(kernel, k, _cache={}):
    """A_k, the coefficient of u**-k in exp(sum a_n p_n u**-n / n), by the
    SymFunc recursion m A_m = sum_n a_n p_n A_(m-n)."""
    out = _cache.setdefault(kernel, [SymFunc.one()])
    while len(out) <= k:
        m = len(out)
        acc = SymFunc.zero()
        for n in range(1, m + 1):
            acc = acc + out[m - n].times_p(n).scaled(kernel.a(n))
        out.append(acc.scaled(Fraction(1, m)))
    return out[k]


def _mult(kernel, k):
    """The kernel's own A_k, read from its column."""
    return kernel._mult_column(k)[0].body


def test_mult_coefficients_match_bases():
    for k in range(6):
        assert _mult(FERMION_PLUS, k) == complete_h(k)
        assert _mult(FERMION_MINUS, k) == elementary_e(k).scaled(Fraction((-1) ** k))
        assert _mult(TWISTED_PLUS, k) == q_coefficient(k)
        assert _mult(DEFORMED_PLUS, k) == q_coefficient(k)


def _translation_oracle(kernel, f):
    """{r: C_r f} by expanding exp(D) f = sum_k D**k f / k!, D = sum_n c_n u**n d/dp_n."""
    out = {0: f}
    term = {0: f}
    k = 0
    while term:
        k += 1
        nxt = {}
        for r, g in term.items():
            for n in range(1, g.degree() + 1):
                piece = g.diff_p(n).scaled(kernel.c(n).scale(Fraction(1, k)))
                nxt[r + n] = nxt.get(r + n, SymFunc.zero()) + piece
        term = {r: g for r, g in nxt.items() if not g.is_zero()}
        for r, g in term.items():
            out[r] = out.get(r, SymFunc.zero()) + g
    return out


def _table_action(kernel, la, r):
    """C_r p_la read off the kernel's sub-multiset table."""
    out = SymFunc.zero()
    for n, den, ex, entries in kernel._digit_table(la).get(r, ()):
        out = out + Column.from_digits(n, entries, den, ex).body
    return out


def test_translation_table_examples():
    for la in partitions_up_to(4):
        f = SymFunc.monomial(la)
        # mode 1 of exp(sum d/dp_n u^n) is d/dp_1
        assert _table_action(FERMION_MINUS, la, 1) == f.diff_p(1)
        # mode 2 of exp(-sum d/dp_n u^n) is (1/2) d^2/dp_1^2 - d/dp_2
        want = f.diff_p(1).diff_p(1).scaled(Fraction(1, 2)) - f.diff_p(2)
        assert _table_action(FERMION_PLUS, la, 2) == want
        # single term -1/(1-t) d/dp_1 for the deformed kernel
        want = f.diff_p(1).scaled(-rf_inv_one_minus_t_pow(1))
        assert _table_action(DEFORMED_PLUS, la, 1) == want
        for kernel in (FERMION_MINUS, FERMION_PLUS, DEFORMED_PLUS):
            assert _table_action(kernel, la, 0) == f


def _exponents(la):
    """m(la) as an exponent vector: m_v(la) at index v-1, no trailing zero."""
    mults = multiplicities(la)
    return tuple(mults.get(v, 0) for v in range(1, max(la, default=0) + 1))


@pytest.mark.parametrize("kernel", [DEFORMED_PLUS, DEFORMED_MINUS], ids=lambda k: k.name)
def test_deformed_denominators_stay_bounded(kernel):
    # one common denominator D_la = prod_v (1-t^v)^m_v per table, of degree |la|,
    # so assembling a mode body never multiplies denominators together: every
    # row of la's table and every nonzero body on p_la has exponent vector m(la)
    for la in partitions_up_to(6):
        table = kernel._digit_table(la)
        assert {ex for rows in table.values() for _, _, ex, _ in rows} == {_exponents(la)}, la
        for shift in range(-2, weight(la) + 2):
            col = kernel.mode_on_basis(shift - 1, 0, la)
            if not col.is_zero():
                assert col.ex == _exponents(la), (la, shift)
            for c in col.body.terms.values():
                assert len(_limbs(c.de)) - 1 <= weight(la), (la, shift)


@pytest.mark.parametrize("kernel", [DEFORMED_PLUS, DEFORMED_MINUS], ids=lambda k: k.name)
def test_deformed_vector_translation_shares_one_denominator(kernel):
    # C_r tau for polynomial-coefficient tau is written over one denominator
    # M = prod_v (1-t^v)^(max_la m_v(la)), so its sums never multiply
    # denominators of different la together; serialising and hashing the
    # shared c_v between two translations must not change what they share
    taus = [dual_schur(la) for la in partitions_up_to(5)]
    taus.append(dual_schur((3, 1)) + dual_schur((2, 2)))
    taus.append(SymFunc.one() + dual_schur((2, 2)).scaled(RF_T) + dual_schur((4,)))
    for tau in taus:
        most = {}
        for la in tau.terms:
            for v, m in multiplicities(la).items():
                most[v] = max(most.get(v, 0), m)
        top = tuple(most.get(v, 0) for v in range(1, max(most, default=0) + 1))
        before = kernel.translate(tau)
        for v in range(1, len(top) + 1):
            rat_to_json(rf_inv_one_minus_t_pow(v))
            hash(rf_inv_one_minus_t_pow(v))
        after = kernel.translate(tau)
        for rows, scale in (before, after):
            assert scale is None, tau
            assert {ex for row in rows.values() for _, _, ex, _ in row} == {top}, tau
        assert before == after, tau


@pytest.mark.parametrize(
    "kernel", [*KERNELS.values(), corrupted_kernel(FERMION_PLUS)], ids=lambda k: k.name
)
def test_modes_match_translation_oracle(kernel):
    for la in partitions_up_to(5):
        cr = _translation_oracle(kernel, SymFunc.monomial(la))
        for shift in range(-2, weight(la) + 2):
            want = SymFunc.zero()
            for r, f in cr.items():
                if r >= shift:
                    want = want + _mult_reference(kernel, r - shift) * f
            for m in (-1, 0, 1):
                got = mode_apply(kernel, shift - 1 - kernel.eps * m, FockVector(m, SymFunc.monomial(la)))
                assert got.charge == m + kernel.eps
                assert got.body == want


def test_twisted_kernels_at_t0_are_the_classical_ones():
    # the premise that lets the fermion suite run as the t = 0 twisted one
    for twisted, classical in ((TWISTED_PLUS, FERMION_PLUS), (TWISTED_MINUS, FERMION_MINUS)):
        for la in partitions_up_to(4):
            for m in (-1, 0, 1):
                v = FockVector(m, SymFunc.monomial(la))
                for shift in range(-2, weight(la) + 2):
                    j = shift - 1 - twisted.eps * m
                    got = mode_apply(twisted, j, v)
                    want = mode_apply(classical, j, v)
                    assert got.charge == want.charge
                    assert got.body.specialize_t(0) == want.body


def _summed(m, pieces):
    """z^m times the sum of an operator's pieces (c, b, col) on a basis vector
    z^m p_la, each c/b times its column, summed by `combine`."""
    return FockVector(m, combine((RatFun.from_ratio(c, b), col) for c, b, col in pieces))


def test_heisenberg_action_examples():
    assert _summed(2, alpha(0, 2, (1,))) == FockVector(2, SymFunc.p(1)).scaled(2)
    assert _summed(0, alpha(-1, 0, ())) == FockVector(0, SymFunc.p(1))
    assert _summed(0, alpha(1, 0, (1,))) == FockVector(0, SymFunc.one())
    assert _summed(0, alpha(1, 0, ())).is_zero()


def test_heisenberg_matches_multiplication_and_derivation():
    for m in (-2, 0, 1):
        for la in partitions_up_to(4):
            v = FockVector(m, SymFunc.monomial(la))
            for n in (1, 2, 3):
                assert _summed(m, alpha(-n, m, la)) == FockVector(m, v.body.times_p(n))
                want = v.body.diff_p(n).scaled(Fraction(n))
                assert _summed(m, alpha(n, m, la)) == FockVector(m, want)
            assert _summed(m, alpha(0, m, la)) == v.scaled(Fraction(m))


def test_twisted_heisenberg_examples():
    assert _summed(0, twisted_alpha(-2, 0, ())) == FockVector(0, SymFunc.p(2))
    r = _summed(0, twisted_alpha(2, 0, (2,)))
    assert r.body == SymFunc.constant(rf_inv_one_minus_t_pow(2).scale(2))
    assert _summed(1, twisted_alpha(1, 1, (1,))).body == SymFunc.constant(rf_inv_one_minus_t_pow(1))
    assert _summed(0, twisted_alpha(1, 0, ())).is_zero()


def _bilinear_reference(w, k, v):
    """The sum over a + b = k - 1 of w(a, b) :fermion+[a] fermion-[b]: on v,
    a <= -1 outermost and a >= 0 innermost with a minus sign, from explicit
    modes over a range past both vanishing bounds."""
    reach = max(map(weight, v.body.terms), default=0) + abs(v.charge) + 2
    out = FockVector.zero(v.charge)
    for a in range(k - 1 - reach, reach):
        b = k - 1 - a
        w_ab = w(a, b)
        if a < 0:
            out = out + KK(FERMION_PLUS, a, FERMION_MINUS, b, v).scaled(w_ab)
        else:
            out = out + KK(FERMION_MINUS, b, FERMION_PLUS, a, v).scaled(-w_ab)
    return out


def _virasoro_reference(beta, k, v):
    """L^beta_k v: the bilinear with weight (1-beta) b - beta a."""
    return _bilinear_reference(lambda a, b: (1 - beta) * b - beta * a, k, v)


def test_virasoro_bracket_examples():
    # [L_1, L_-1] = 2 L_0, no central term at j = 1
    L = lambda k, v: _virasoro_reference(Fraction(1, 2), k, v)
    v = FockVector(0, SymFunc.p(1))
    assert L(1, L(-1, v)) - L(-1, L(1, v)) == L(0, v).scaled(2)


@pytest.mark.parametrize("beta", [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2)])
def test_virasoro_central_term(beta):
    # [L_2, L_-2] = 4 L_0 + c/2 with c = -12 beta^2 + 12 beta - 2
    c_beta = -12 * beta * beta + 12 * beta - 2
    L = lambda k, v: _virasoro_reference(beta, k, v)
    for m in (-1, 0, 1):
        v = FockVector(m, SymFunc.one())
        assert L(2, L(-2, v)) - L(-2, L(2, v)) == L(0, v).scaled(4) + v.scaled(Fraction(c_beta, 2))


@pytest.mark.parametrize("beta", [Fraction(-1, 3), Fraction(3, 2), Fraction(5)])
def test_virasoro_matches_the_weighted_bilinear(beta):
    p, q = beta.numerator, beta.denominator
    for m in (-1, 0, 1):
        for la in partitions_up_to(3):
            v = FockVector(m, SymFunc.monomial(la))
            for k in range(-3, 4):
                assert _summed(m, virasoro(p, q, k, m, la)) == _virasoro_reference(beta, k, v)


def test_shared_bilinear_builder_matches_the_per_charge_sums(monkeypatch):
    # one miss per (k, la), on L^0_k, builds L^0_k and alpha_k at every charge
    # of the sweep from charge-0-frame compositions; at |m| > |la| the a'
    # range runs past [k - |la|, |la|)
    monkeypatch.setattr(fock, "_heis_cache", {})
    monkeypatch.setattr(fock, "_vir_cache", {})
    built = []
    builder = fock._normal_ordered_pair
    monkeypatch.setattr(fock, "_normal_ordered_pair", lambda k, la, *rest: built.append((k, la)) or builder(k, la, *rest))
    charges = (-5, -1, 0, 2, 5)
    weights = {True: lambda a, b: b, False: lambda a, b: 1}
    for la in partitions_up_to(3):
        for k in range(-4, 5):
            for m in charges:
                v = FockVector(m, SymFunc.monomial(la))
                for weighted, w in weights.items():
                    col = fock.bilinear_column(k, m, la, weighted, charges)
                    assert FockVector(m, col.body) == _bilinear_reference(w, k, v), (la, k, m, weighted)
    assert len(built) == len(set(built)) == 9 * len(list(partitions_up_to(3)))
    assert len(fock._heis_cache) == len(fock._vir_cache) == len(built) * len(charges)


def test_virasoro_caches_are_beta_free(monkeypatch):
    # L^beta_k = L^0_k - beta (k-1) alpha_k: no column is built per beta
    monkeypatch.setattr(fock, "_vir_cache", {})
    monkeypatch.setattr(fock, "_heis_cache", {})
    basis = ((2, 1), (1,))  # the vector z p_21 + z p_1
    for la in basis:
        virasoro(0, 1, -2, 1, la)
    built = len(fock._vir_cache)
    # no alpha term at beta = 0, but a miss on L^0 builds alpha from the same compositions
    assert built == 2 and len(fock._heis_cache) == 2
    for la in basis:
        virasoro(2, 1, -2, 1, la)
    assert len(fock._vir_cache) == built and len(fock._heis_cache) == 2
    for la in basis:
        virasoro(2, 1, 1, 1, la)  # no alpha term at k = 1
    assert len(fock._vir_cache) == built + 2 and len(fock._heis_cache) == 4


def test_central_charge_at_beta_zero():
    beta = Fraction(0)
    assert -12 * beta * beta + 12 * beta - 2 == -2


def test_fermion_anticommutators_window():
    P, M = FERMION_PLUS, FERMION_MINUS
    for a in range(-2, 3):
        for b in range(-2, 3):
            lhs = lambda v: KK(P, a, M, b, v) + KK(M, b, P, a, v)
            c = 1 if a + b == -1 else 0
            assert check_mode_identity(lhs, lambda v: v.scaled(c), 3, (-1, 0, 1)) is None


def test_twisted_anticommutators_window():
    one_minus_t_sq = rf_one_minus_t_pow(1) * rf_one_minus_t_pow(1)
    P, M = TWISTED_PLUS, TWISTED_MINUS
    for a in range(-2, 2):
        for b in range(-2, 2):
            def lhs(v):
                return (
                    KK(P, a, M, b, v)
                    + KK(P, a + 1, M, b - 1, v).scaled(-RF_T)
                    + KK(M, b, P, a, v)
                    + KK(M, b + 1, P, a - 1, v).scaled(-RF_T)
                )

            c = one_minus_t_sq if a + b == -1 else 0
            assert check_mode_identity(lhs, lambda v: v.scaled(c), 3, (-1, 0, 1)) is None


def test_commutation_relation_sample():
    e = elementary_e
    lhs = lambda v: FockVector(
        v.charge, perp_apply(e(1), e(1) * v.body) - perp_apply(e(0), e(0) * v.body)
    )
    rhs = lambda v: FockVector(v.charge, e(1) * perp_apply(e(1), v.body))
    assert check_mode_identity(lhs, rhs, 4, (0,)) is None


def test_check_mode_identity_trivial_and_negative():
    lhs = lambda v: FockVector(v.charge, v.body.times_p(1))
    assert check_mode_identity(lhs, lhs, 3, (-1, 0, 1)) is None
    rhs = lambda v: lhs(v).scaled(RatFun.from_int(-1))
    w = check_mode_identity(lhs, rhs, 3, (0,))
    assert w is not None and w["charge"] == 0 and w["p"] == []


def test_corrupted_kernel_breaks_relations():
    bad = corrupted_kernel(FERMION_PLUS)
    lhs = lambda v: KK(bad, 0, FERMION_MINUS, -1, v) + KK(FERMION_MINUS, -1, bad, 0, v)
    assert check_mode_identity(lhs, lambda v: v, 3, (0,)) is not None


@pytest.mark.parametrize(
    "k1, k2",
    [
        (FERMION_PLUS, FERMION_MINUS),
        (TWISTED_MINUS, TWISTED_PLUS),
        (TWISTED_PLUS, TWISTED_PLUS),
        # an inner deformed column is over (1-t^v): its exponents go on the outer columns
        (DEFORMED_PLUS, DEFORMED_MINUS),
        (DEFORMED_MINUS, DEFORMED_PLUS),
        (DEFORMED_PLUS, DEFORMED_PLUS),
        (TWISTED_PLUS, DEFORMED_MINUS),
        (DEFORMED_PLUS, FERMION_MINUS),
    ],
)
def test_diagonal_sides_are_the_mode_products(k1, k2):
    # X(a) = k1[a] k2[d-a] p_la and Y(b) = k2[b] k1[d-b] p_la at charge 0,
    # against the SymFunc mode actions; one pair shares its columns
    for la in partitions_up_to(3):
        v = FockVector(0, SymFunc.monomial(la))
        for d in range(-3, 3):
            X, Y = diagonal(k1, k2, d, la)
            assert (Y is X) == (k1 is k2)
            for a in range(-3, 3):
                assert X(a).body == KK(k1, a, k2, d - a, v).body
                assert Y(a).body == KK(k2, a, k1, d - a, v).body
                assert X(a) is X(a)


def test_kernel_factorization_sample():
    # fermion+[a] = sum_s t^s h_s twisted+[a+s] on low degrees
    for a in (-2, -1, 0, 1):
        def rhs(v):
            out, ts = FockVector.zero(v.charge + 1), RatFun.from_int(1)
            for s in range(0, 8):
                w = mode_apply(TWISTED_PLUS, a + s, v)
                out = out + FockVector(w.charge, complete_h(s) * w.body).scaled(ts)
                ts = ts * RF_T
            return out

        lhs = lambda v: mode_apply(FERMION_PLUS, a, v)
        assert check_mode_identity(lhs, rhs, 3, (-1, 0, 1)) is None


def test_conjugation_by_substitution():
    def subst(v):
        return FockVector(v.charge, v.body.scale_p(rf_one_minus_t_pow))

    for a in (-2, -1, 0, 1, 2):
        for deformed, plain in ((DEFORMED_PLUS, FERMION_PLUS), (DEFORMED_MINUS, FERMION_MINUS)):
            lhs = lambda v: mode_apply(deformed, a, subst(v))
            rhs = lambda v: subst(mode_apply(plain, a, v))
            assert check_mode_identity(lhs, rhs, 3, (-1, 0, 1)) is None


def test_charge_mismatch_rejected():
    with pytest.raises(ValueError):
        FockVector(0, SymFunc.p(1)) + FockVector(1, SymFunc.p(1))


# ---------------------------------------------------------------------------
# packed Q-valued columns against linear_combination, the reference


def _column(n, body):
    """A body of weight n with coefficients in Z[t]/b as a Column over the lcm of the b."""
    parts = {la: c.poly_parts() for la, c in body.terms.items()}
    den = 1
    for _, b in parts.values():
        den = den * b // gcd(den, b)
    digits = []
    for la, (c, b) in parts.items():
        s = den // b
        digits.append((la, c * s if type(c) is int else tuple(d * s for d in c)))
    return Column.from_digits(n, digits, den)


@contextmanager
def _fresh_grades():
    """Every grade rebuilt at its least width and stride, on entry and again on
    exit; a cached column packed under the cleared grades is repacked by
    `_combine` when a sum it enters needs another width or stride."""
    fock._grade.cache_clear()
    try:
        yield
    finally:
        fock._grade.cache_clear()


# small digits, digits past 2**63 and 2**127 (so sums need widths above 64
# and 128 bits), and the edges around those powers, of either sign
_INTS = st.one_of(
    st.integers(-(2**12), 2**12),
    st.integers(-(2**140), 2**140),
    st.sampled_from([2**63, -(2**63) - 1, 2**127 - 1, -(2**127), 2**128 + 1]),
)


@st.composite
def _q_body(draw, n):
    """A nonzero SymFunc of weight n with Q coefficients over one random denominator."""
    las = list(partitions_of(n))
    chosen = draw(st.lists(st.sampled_from(las), min_size=1, max_size=len(las), unique=True))
    den = draw(st.integers(1, 2**70))
    terms = {la: RatFun.from_fraction(Fraction(draw(_INTS.filter(bool)), den)) for la in chosen}
    return SymFunc(terms)


@st.composite
def _q_pairs(draw):
    """(coefficient, body) pairs over weights 0..4, so inputs are inhomogeneous;
    with cancel set every pair also enters negated and the sum is zero."""
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        body = draw(_q_body(draw(st.integers(0, 4))))
        pairs.append((RatFun.from_fraction(Fraction(draw(_INTS.filter(bool)), draw(st.integers(1, 2**66)))), body))
    cancel = draw(st.booleans())
    if cancel:
        pairs += [(-c, body) for c, body in pairs]
    return pairs, cancel


@settings(max_examples=200, deadline=None)
@given(_q_pairs())
def test_packed_apply_matches_linear_combination(case):
    pairs, cancel = case
    with _fresh_grades():
        columns = [(c, _column(weight(next(iter(body.terms))), body)) for c, body in pairs]
        assert all(col.bits < col.width for _, col in columns)
        assert [col.body for _, col in columns] == [body for _, body in pairs]
        got = combine(columns)
    assert got == linear_combination(pairs)
    assert got.is_zero() == cancel


def test_width_grows_mid_run():
    small = SymFunc({(3,): RatFun.from_int(5), (2, 1): RatFun.from_fraction(Fraction(-7, 3))})
    wide = SymFunc({(1, 1, 1): RatFun.from_int(2**150), (3,): RatFun.from_int(-1)})
    with _fresh_grades():
        a = _column(3, small)
        narrow = a.width
        first = combine([(RatFun.from_int(3), a)])
        b = _column(3, wide)  # grows the width of weight 3; a keeps its packing
        assert b.width == fock._grade(3).width > narrow == a.width
        pairs = [(RatFun.from_int(3), a), (RatFun.from_fraction(Fraction(-1, 3)), b)]
        got = combine(pairs)
        assert a.width == b.width == fock._grade(3).width  # a repacked once, in place
        assert a.body == small and b.body == wide
    assert first == small.scaled(3)
    assert got == linear_combination((c, col.body) for c, col in pairs)


def test_t_denominator_coefficients_match_linear_combination():
    # coefficients in Z[t]/den, on Q and on Z[t] columns alike, and those with
    # t-dependent denominators (one shared, or several with a proper lcm such
    # as 1/(1-t) and t/(1-t^2)) are summed packed; deformed columns over
    # different (1-t^v) exponents are rewritten over their per-v maximum
    body = SymFunc({(2,): RatFun.from_int(4), (1, 1): RatFun.from_fraction(Fraction(1, 2))})
    col = _column(2, body)
    t_body = body.scaled(RF_T) + SymFunc({(2,): RatFun.from_int(3)})
    t_col = _column(2, t_body)
    assert (col.deg, t_col.deg) == (0, 1)
    inv, inv2 = rf_inv_one_minus_t_pow(1), rf_inv_one_minus_t_pow(2)
    deformed = [DEFORMED_PLUS.mode_on_basis(-2, 0, la) for la in ((1, 1), (2,), (2, 1))]
    assert [c.ex for c in deformed] == [(2,), (0, 1), (1, 1)]
    cases = [
        [(RatFun.from_fraction(Fraction(-3, 7)), col), (RatFun.from_int(2), col)],
        [(RF_T, col), (RF_T * RF_T - RatFun.from_fraction(Fraction(2, 5)), t_col)],
        [(inv, col), (RatFun.from_int(2), t_col)],
        [(inv, col), (RF_T * inv2, t_col), (RatFun.from_fraction(Fraction(5, 3)), col), (inv2.scale(3), t_col)],
        [(RF_T, deformed[0]), (inv, deformed[1]), (RatFun.from_int(-2), deformed[2])],
    ]
    for pairs in cases:
        assert combine(pairs) == linear_combination((c, x.body) for c, x in pairs)


# ---------------------------------------------------------------------------
# packed Z[t]-valued columns against linear_combination, the reference

# digits of the bodies: small, past 2**63 and 2**127, and the edges around
# those powers, of either sign; coefficient digits stay below 2**40 and
# denominators divide 12, so every sum fits the 192-bit limbs of the
# reference and of the RatFun coefficients it is unpacked to
_BODY_DIGITS = st.one_of(
    st.integers(-(2**12), 2**12),
    st.integers(-(2**129), 2**129),
    st.sampled_from([2**63, -(2**63) - 1, 2**127 - 1, -(2**127), 2**128 + 1, 2**30 - 1, -(2**62) + 1]),
)
_COEFF_DIGITS = st.one_of(st.integers(-(2**8), 2**8), st.integers(-(2**40), 2**40))
_DENS = st.sampled_from([1, 2, 3, 4, 6, 12])


@st.composite
def _poly(draw, digits):
    """A nonzero polynomial of t-degree 0..12 over a denominator dividing 12;
    a flat one (all digits equal) makes a product's convolution sums peak."""
    if draw(st.booleans()):
        ds = [draw(digits.filter(bool))] * draw(st.integers(1, 13))
    else:
        ds = draw(st.lists(digits, min_size=1, max_size=13))
        ds[-1] = ds[-1] or 1
    return RatFun.from_poly(ds, draw(_DENS))


@st.composite
def _poly_pairs(draw):
    """(coefficient, body) pairs over weights 0..4 with Z[t]/den coefficients;
    with cancel set every pair also enters negated and the sum is zero."""
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        las = list(partitions_of(draw(st.integers(0, 4))))
        chosen = draw(st.lists(st.sampled_from(las), min_size=1, max_size=len(las), unique=True))
        body = SymFunc({la: draw(_poly(_BODY_DIGITS)) for la in chosen})
        pairs.append((draw(_poly(_COEFF_DIGITS)), body))
    cancel = draw(st.booleans())
    if cancel:
        pairs += [(-c, body) for c, body in pairs]
    return pairs, cancel


# a product whose convolution sums 13 digits of 30 bits: it needs the
# ceil(log2(min deg + 1)) term of the bound to get a 64-bit width
_FULL_CONVOLUTION = (
    [(RatFun.from_poly([1] * 13, 1), SymFunc({(1,): RatFun.from_poly([2**30 - 1] * 13, 1)}))],
    False,
)


@settings(max_examples=150, deadline=None)
@given(_poly_pairs())
@example(_FULL_CONVOLUTION)
def test_packed_poly_apply_matches_linear_combination(case):
    pairs, cancel = case
    with _fresh_grades():
        columns = [(c, _column(weight(next(iter(body.terms))), body)) for c, body in pairs]
        assert all(col.bits < col.width and col.deg < col.stride for _, col in columns)
        assert [col.body for _, col in columns] == [body for _, body in pairs]
        got = combine(columns)
    assert got == linear_combination(pairs)
    assert got.is_zero() == cancel


def test_stride_grows_mid_run():
    low = SymFunc({(3,): RatFun.from_poly([5, -1], 1), (2, 1): RatFun.from_fraction(Fraction(-7, 3))})
    high = SymFunc({(1, 1, 1): RatFun.from_poly([1, 0, 0, 0, 0, 0, 0, 0, 0, 2], 1), (3,): RF_T})
    with _fresh_grades():
        a = _column(3, low)
        short = a.stride
        first = combine([(RatFun.from_int(3), a)])
        b = _column(3, high)  # grows the stride of weight 3; a keeps its packing
        assert b.stride == fock._grade(3).stride > short == a.stride
        pairs = [(RF_T * RF_T, a), (RatFun.from_fraction(Fraction(-1, 3)), b)]
        got = combine(pairs)
        # the t**2 multiple of a needs t-degree 3, below the stride of b
        assert a.stride == b.stride == fock._grade(3).stride  # a repacked once, in place
        assert a.body == low and b.body == high
        # a Q column keeps stride 1 beside them, until a t-dependent sum needs more
        q_body = SymFunc({(2, 1): RatFun.from_int(4)})
        q = _column(3, q_body)
        q_sum = combine([(RatFun.from_int(3), q), (RatFun.from_int(-1), q)])
        assert q.stride == 1
        t_sum = combine([(RF_T, q), (RatFun.from_int(1), b)])
        assert q.stride == b.stride and q.body == q_body
    assert first == low.scaled(3)
    assert got == linear_combination((c, col.body) for c, col in pairs)
    assert q_sum == q_body.scaled(2)
    assert t_sum == q_body.scaled(RF_T) + high


@pytest.mark.parametrize("kernel", list(KERNELS.values()), ids=lambda k: k.name)
def test_mode_bodies_are_columns(kernel):
    # every kernel's bodies are cached as columns: over a scalar denominator
    # for fermion+- and twisted+-, over D_la = prod_v (1-t^v)^m_v for deformed+-
    deformed = kernel.name.startswith("deformed")
    for la in partitions_up_to(5):
        for shift in range(-2, weight(la) + 1):
            col = kernel.mode_on_basis(shift - 1, 0, la)
            assert type(col) is Column, (la, shift)
            if not col.is_zero():
                assert col.ex == (_exponents(la) if deformed else ()), (la, shift)


def _fresh(kernel):
    """A copy of kernel with empty caches."""
    return fock.VertexKernel(kernel.name, kernel.eps, kernel.a, kernel.c)


_ALL_KERNELS = [*KERNELS.values(), corrupted_kernel(FERMION_PLUS), corrupted_kernel(TWISTED_PLUS)]


def _reference_mode(kernel, shift, la):
    """sum_{r >= shift} A_(r-shift) C_r p_la from the SymFunc references."""
    want = SymFunc.zero()
    for r, f in _translation_oracle(kernel, SymFunc.monomial(la)).items():
        if r >= shift:
            want = want + _mult_reference(kernel, r - shift) * f
    return want


@pytest.mark.parametrize("kernel", _ALL_KERNELS, ids=lambda k: k.name)
def test_digit_sum_modes_match_mode_body(kernel):
    # the column built on a miss from la's table is the body mode_body reads
    # from the translation of p_la and the SymFunc reference, over its least
    # scalar denominator
    kernel = _fresh(kernel)
    for la in partitions_up_to(6):
        translations = kernel.translate(SymFunc.monomial(la))
        for shift in range(-3, weight(la) + 2):
            col = kernel.mode_on_basis(shift - 1, 0, la)
            assert type(col) is Column, (la, shift)
            assert col.body == kernel.mode_body(shift, translations) == _reference_mode(kernel, shift, la), (la, shift)
            flat = [d for _, c in col.digits() for d in ((c,) if type(c) is int else c)]
            assert gcd(col.den, *flat) == 1, (la, shift)


@pytest.mark.parametrize("kernel", list(KERNELS.values()), ids=lambda k: k.name)
def test_vacuum_modes_are_the_mult_coefficients(kernel):
    # K[j] p_() = A_(-shift): the digit recursion for A_k against the SymFunc one
    kernel = _fresh(kernel)
    for k in range(8):
        col = kernel.mode_on_basis(-k - 1, 0, ())
        assert type(col) is Column and col.body == _mult_reference(kernel, k), k


def test_cold_modes_skip_linear_combination_and_from_body(monkeypatch):
    # every kernel's cold modes, a sum with a 1/(1-t^k) coefficient and the
    # translation of a tau with t-denominators are built without a SymFunc
    # sum; Column.from_body, the old way from a SymFunc to a column, is gone
    def refuse(*args):
        raise AssertionError("mode built through a SymFunc sum")

    kernels = [_fresh(k) for k in KERNELS.values()]
    tau = (
        schur((2, 1))
        + SymFunc.monomial((2,), rf_inv_one_minus_t_pow(1))
        + SymFunc.monomial((1, 1, 1), RF_T * rf_inv_one_minus_t_pow(2))
    )
    got = {}
    with monkeypatch.context() as patch:
        patch.setattr(fock, "linear_combination", refuse, raising=False)
        for name in ("__add__", "__sub__", "__mul__", "times_monomial", "times_p"):
            patch.setattr(SymFunc, name, refuse)
        for kernel in kernels:
            for la in partitions_up_to(5):
                for shift in range(-3, weight(la) + 2):
                    assert type(kernel.mode_on_basis(shift - 1, 0, la)) is Column, (kernel, la, shift)
            translations = kernel.translate(tau)
            for shift in range(-2, 5):
                applied = mode_apply(kernel, shift - 1, FockVector(0, tau)).body
                got[kernel, shift] = (kernel.mode_body(shift, translations), applied)
    assert not hasattr(Column, "from_body")
    for (kernel, shift), (body, applied) in got.items():
        want = SymFunc.zero()
        for la, c in tau.terms.items():
            want = want + _reference_mode(kernel, shift, la).scaled(c)
        assert body == applied == want, (kernel, shift)


def test_kernel_data_outside_the_supported_form_is_rejected():
    # a_n must lie in Z[t]/b and c_v in Z[t]/(b (1-t^v)^k)
    one = lambda n: RatFun.from_int(1)
    with pytest.raises(ValueError):
        fock.VertexKernel("bad-a", +1, rf_inv_one_minus_t_pow, one).mode_on_basis(-2, 0, ())
    bad_c = [
        lambda v: RatFun([1], [1, 2]),  # 1/(1+2t)
        lambda v: rf_inv_one_minus_t_pow(v + 1),
        lambda v: rf_inv_one_minus_t_pow(1) * rf_inv_one_minus_t_pow(2),
    ]
    for c in bad_c:
        for la in ((1,), (2,)):
            with pytest.raises(ValueError):
                fock.VertexKernel("bad-c", +1, one, c).mode_on_basis(-1, 0, la)
    # c_v = -3t / (2 (1-t^v)^2) is of the supported form, with k = 2
    def c(v):
        return RatFun([0, -3]) / (rf_one_minus_t_pow(v) * rf_one_minus_t_pow(v)).scale(2)

    kernel = fock.VertexKernel("k2", -1, lambda n: -rf_one_minus_t_pow(n), c)
    for la in partitions_up_to(4):
        for shift in range(-2, weight(la) + 1):
            col = kernel.mode_on_basis(shift - 1, 0, la)
            assert col.body == _reference_mode(kernel, shift, la), (la, shift)
            if not col.is_zero():
                assert col.ex == tuple(2 * m for m in _exponents(la)), (la, shift)


def test_t_denominator_column_digit_past_the_limb_bound_raises():
    # unpacking over prod_v (1-t^v)^e checks every digit, as RatFun.from_poly does
    over = rf_inv_one_minus_t_pow(1)
    edge = Column.from_digits(1, [((1,), 2**191 - 1)], 1, (1,))
    assert edge.body == SymFunc.monomial((1,), RatFun.from_int(2**191 - 1) * over)
    for d in (2**191, -(2**191), (3, 2**191)):
        with pytest.raises(PackingOverflow):
            Column.from_digits(1, [((1,), d)], 1, (1,)).body

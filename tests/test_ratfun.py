"""Exact arithmetic in Q(t): packing, normalisation, field axioms."""

from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from symfock.ratfun import (
    LIMB_BITS,
    ONE,
    ZERO,
    PackingOverflow,
    RatFun,
    TPoly,
    _digits,
    _limbs,
    _pack,
    _spread,
    _unspread,
    _width,
    one_minus_t_pow,
    poly_divmod,
    poly_gcd,
    rat_from_json,
    rat_to_json,
    rf_inv_one_minus_t_pow,
)

small_fractions = st.fractions(
    min_value=-40, max_value=40, max_denominator=12
)
poly_coeffs = st.lists(small_fractions, min_size=0, max_size=7)


def mk(coeffs):
    return TPoly.from_coeffs(coeffs)


def naive_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def trimmed(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


# -- packed polynomial layer -------------------------------------------------


def test_trailing_zeros_stripped():
    p = mk([1, 2, 0, 0])
    assert p.coeff_vector() == (Fraction(1), Fraction(2))
    assert p.degree == 1
    assert mk([0, 0]).is_zero()


@settings(max_examples=150)
@given(poly_coeffs, poly_coeffs)
def test_packed_mul_matches_naive(a, b):
    assert (mk(a) * mk(b)).coeff_vector() == tuple(trimmed(naive_mul(a, b)))


@settings(max_examples=150)
@given(poly_coeffs, poly_coeffs)
def test_packed_add_matches_naive(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    assert (mk(a) + mk(b)).coeff_vector() == tuple(trimmed(out))


@given(poly_coeffs)
def test_roundtrip_coeffs(a):
    assert mk(a).coeff_vector() == tuple(trimmed(a))


def test_packing_overflow_rejected():
    with pytest.raises(PackingOverflow):
        TPoly.from_coeffs([Fraction(1 << 200)])


def test_input_cap_is_2_pow_64():
    TPoly.from_coeffs([(1 << 64) - 1])
    with pytest.raises(PackingOverflow):
        TPoly.from_coeffs([1 << 64])
    with pytest.raises(PackingOverflow):
        TPoly.from_coeffs([Fraction(1, 1 << 64)])


def test_reduce_rebuilds_past_input_cap():
    # the quotient by the common factor t + 1 has a coefficient of 2**100,
    # above the input cap but far inside the packing bound
    big = mk([1 << 50, 3])
    r = RatFun(big * big * mk([1, 1]), mk([1, 1]))
    assert r.num == big * big and r.den == ONE


def test_poly_divmod_exact():
    p = mk([-1, 0, 1])  # t^2 - 1
    q, r = poly_divmod(p, mk([-1, 1]))  # by t - 1
    assert q.coeff_vector() == (Fraction(1), Fraction(1)) and r.is_zero()
    q, r = poly_divmod(mk([1, 2, 1]), mk([3, 1]))
    assert (q * mk([3, 1]) + r) == mk([1, 2, 1])


def test_poly_gcd_monic():
    g = poly_gcd(mk([-1, 0, 1]), mk([1, 2, 1]))  # (t-1)(t+1), (t+1)^2
    assert g.coeff_vector() == (Fraction(1), Fraction(1))
    assert poly_gcd(ZERO, ZERO).is_zero()


# -- rational-function normalisation (spec examples) --------------------------


def test_normalize_cancels_factor():
    r = RatFun(mk([-1, 0, 1]), mk([-1, 1]))  # (t^2-1)/(t-1)
    assert r.num.coeff_vector() == (Fraction(1), Fraction(1))  # t + 1
    assert r.den.coeff_vector() == (Fraction(1),)


def test_normalize_zero():
    r = RatFun(ZERO, mk([0, 0, 0, 1]))
    assert r.num.is_zero() and r.den == ONE


def test_normalize_constant_and_monic():
    r = RatFun(mk([0, 2]), mk([2]))  # 2t / 2
    assert r.num.coeff_vector() == (Fraction(1),) * 1 or True
    assert r.num.coeff_vector() == (Fraction(0), Fraction(1))
    assert r.den.coeff_vector() == (Fraction(1),)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFun(ONE, ZERO)
    with pytest.raises(ZeroDivisionError):
        RatFun(ONE, ONE) / RatFun(ZERO, ONE)


def test_field_op_examples():
    one_minus_t = RatFun(one_minus_t_pow(1))
    s = RatFun(ONE, one_minus_t_pow(1)) + RatFun(ONE, mk([1, 1]))
    assert s == RatFun(mk([2]), one_minus_t_pow(2))  # 2/(1-t^2)
    assert one_minus_t * RatFun(ONE, one_minus_t_pow(1)) == RatFun(ONE)
    assert RatFun(one_minus_t_pow(2)) / one_minus_t == RatFun(mk([1, 1]))


def test_eval_examples():
    inv = RatFun(ONE, one_minus_t_pow(1))
    assert inv.eval_at(0) == 1
    with pytest.raises(ZeroDivisionError):
        inv.eval_at(1)
    r = RatFun(one_minus_t_pow(2), one_minus_t_pow(1))
    assert r.eval_at(2) == 3  # equals 1 + t


rat_funs = st.builds(
    lambda n, d: RatFun(mk(n), mk(d)),
    poly_coeffs,
    poly_coeffs.filter(lambda cs: any(c != 0 for c in cs)),
)


@settings(max_examples=80, deadline=None)
@given(rat_funs, rat_funs, rat_funs)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    if not x.is_zero():
        assert x * x.inverse() == RatFun(ONE)


@settings(max_examples=80, deadline=None)
@given(rat_funs)
def test_normalize_idempotent(x):
    y = RatFun(x.num, x.den)
    assert (y.num, y.den) == (x.num, x.den)


@settings(max_examples=60, deadline=None)
@given(rat_funs, rat_funs)
def test_eval_is_ring_hom(x, y):
    t0 = Fraction(3, 7)
    try:
        vx, vy = x.eval_at(t0), y.eval_at(t0)
    except ZeroDivisionError:
        return
    assert (x + y).eval_at(t0) == vx + vy
    assert (x * y).eval_at(t0) == vx * vy


@settings(max_examples=80, deadline=None)
@given(rat_funs)
def test_json_roundtrip_bit_exact(x):
    j = rat_to_json(x)
    y = rat_from_json(j)
    assert y == x
    assert rat_to_json(y) == j


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        rat_from_json({"num": ["1"], "den": ["0"]})
    with pytest.raises(ValueError):
        rat_from_json({"num": ["1"], "den": ["1"], "extra": 1})
    with pytest.raises(ValueError):
        rat_from_json({"num": ["x"], "den": ["1"]})
    with pytest.raises(ValueError):
        rat_from_json([1, 2])


# -- the balanced-digit codec shared with fock

# 32 and 64 read machine words, 96, 128 (the widest in fock's golden cases) and 192 bytes
CODEC_WIDTHS = [32, 64, 96, 128, 192]


def _round_trips(width, x):
    """The digits of x != 0 at width as a tuple, once they are checked to re-encode to x,
    also as all the digits of a count with two spare slots."""
    ds = _unspread(x, width)
    ds = (ds,) if type(ds) is int else ds
    half = 1 << (width - 1)
    assert _spread(ds, width) == x
    assert ds[-1] != 0 and all(-half <= d < half for d in ds)
    count = len(ds) + 2
    assert _pack(enumerate(ds), width, count) == x
    assert _digits(x, width, count) == [*ds, 0, 0]
    return ds


@st.composite
def spread_cases(draw):
    """(width, ds): balanced digits at width, the edge digits favoured, no trailing zero."""
    width = draw(st.sampled_from(CODEC_WIDTHS))
    half = 1 << (width - 1)
    digit = st.sampled_from([-half, -half + 1, -1, 0, 1, half - 1]) | st.integers(-half, half - 1)
    ds = draw(st.lists(digit, min_size=1, max_size=5))
    while ds and not ds[-1]:
        ds.pop()
    return width, tuple(ds)


# Every int has balanced digits that re-encode to it, so no check that
# re-encodes the digits of a packed value can see a coefficient that
# carried past the limb bound (test_carry_past_limb_bound_is_caught).
@settings(max_examples=400, deadline=None)
@given(spread_cases())
def test_spread_inverts_unspread(case):
    width, ds = case
    assume(ds)
    # balanced digits are unique, so x's are the ones it was built from
    assert _round_trips(width, sum(d << (width * i) for i, d in enumerate(ds))) == ds


@pytest.mark.parametrize("width", CODEC_WIDTHS)
def test_spread_inverts_unspread_at_the_digit_bounds(width):
    half = 1 << (width - 1)
    edges = [half, -half, half - 1, -(half - 1)]
    # multi-limb: negative, and positive just below 2**(2*width-1), whose top digit carries
    edges += [-(half << width) - 1, -(1 << (3 * width)) + 5, (half << width) - 1, (half << width) - half]
    for x in edges:
        _round_trips(width, x)
    # count digits hold exactly [-offset, 2**(width*count) - offset); one past either end raises
    for count in (1, 3):
        offset = sum(half << (width * i) for i in range(count))
        low, high = -offset, (1 << (width * count)) - offset - 1
        assert _digits(low, width, count) == [-half] * count
        assert _digits(high, width, count) == [half - 1] * count
        for x in (low - 1, high + 1):
            with pytest.raises(OverflowError):
                _digits(x, width, count)
    # _width(bits) holds digits below 2**bits with a sign bit to spare
    assert _width(width - 1) == width and _width(width) == width + 32
    assert _width(0) == _width(31) == 32 and _width(32) == 64


# -- content normalisation against the digit-wise rule


def _encode(digits):
    return _spread(digits, LIMB_BITS)


def digitwise_normalized(p):
    """(enc, den) of p divided by gcd(content, den), computed digit by digit."""
    ds = _limbs(p.enc)
    g = gcd(*ds, p.den)
    return _encode([d // g for d in ds]), p.den // g


@st.composite
def packed_polys(draw, digit_bits=185):
    """Raw packed polynomials of one limb (constants) or several, of either sign,
    whose content carries a factor k that den may share."""
    bound = 2**digit_bits
    digits = draw(st.lists(st.integers(-bound, bound), min_size=1, max_size=5))
    k = draw(st.integers(1, 60))
    den = draw(st.integers(1, 10**6)) * draw(st.sampled_from([1, k, k * k]))
    return TPoly(_encode([d * k for d in digits]), den)


@settings(max_examples=300, deadline=None)
@given(packed_polys())
@example(TPoly(_encode([1, 2]), 3))  # 3 divides enc = 1 + 2*2**192, not the content
@example(TPoly(_encode([6, 0, -9]), 12))  # multi-limb, den shares 3 with the content
@example(TPoly(_encode([-6]), 4))  # negative constant sharing 2 with den
@example(TPoly(-(2**190), 2**10))  # single-limb constant at the top of the limb
def test_content_normalized_matches_digitwise(p):
    got = p.content_normalized()
    assert (got.enc, got.den) == digitwise_normalized(p)
    assert got.degree == len(_limbs(p.enc)) - 1
    assert hash(p) == hash(digitwise_normalized(p))


@settings(max_examples=60, deadline=None)
@given(packed_polys(digit_bits=40), packed_polys(digit_bits=40), st.integers(1, 30))
@example(TPoly(_encode([6, 0, -9]), 12), ONE, 1)  # content 3 shared with nd over den 1
@example(TPoly(_encode([-4]), 2), ONE, 5)
def test_ratfun_hash_matches_digitwise(n, d, k):
    assume(d.enc != 0)
    x = RatFun._raw(n.enc, n.den, d.enc, d.den)
    h = hash(x)
    want = (*digitwise_normalized(x.num), *digitwise_normalized(x.den))
    assert h == hash(want)
    # an equal value with a scaled representative hashes alike
    assert hash(RatFun._raw(n.enc * k, n.den * k, d.enc, d.den)) == h
    # over den 1, a num whose digits share the content k with its nd
    y = RatFun(TPoly(n.enc * k, n.den * k))
    assert hash(y) == hash((*digitwise_normalized(n), 1, 1))
    assert (y.num.enc, y.num.den) == digitwise_normalized(n)


# -- values never change once built


def _observe(x):
    """Run every observer of x that reads its canonical form or its fields."""
    hash(x)
    repr(x)
    x.num
    x.den
    try:
        x.eval_at(Fraction(1, 3))
    except ZeroDivisionError:
        pass
    rat_to_json(x)
    x.poly_parts()


observed_rat_funs = st.one_of(
    rat_funs,
    st.integers(1, 6).map(rf_inv_one_minus_t_pow),
    st.integers(1, 6).map(lambda n: -rf_inv_one_minus_t_pow(n)),
    st.builds(
        lambda n, d: RatFun._raw(n.enc, n.den, d.enc, d.den),
        packed_polys(digit_bits=40),
        packed_polys(digit_bits=40).filter(lambda d: d.enc != 0),
    ),
)


@settings(max_examples=100, deadline=None)
@given(observed_rat_funs)
@example(RatFun(ONE, one_minus_t_pow(3)))  # canonical den is t^3 - 1: both signs flip
@example(RatFun(mk([2, 4]), mk([6, -3])))  # non-monic, content shared with the scalars
@example(RatFun._raw(0, 5, 7, 3))  # zero with a non-unit representative
def test_observers_leave_fields_unchanged(x):
    fields = (x.ne, x.nd, x.de, x.dd)
    _observe(x)
    assert (x.ne, x.nd, x.de, x.dd) == fields
    # the memoised canonical form answers a second round alike
    j, h = rat_to_json(x), hash(x)
    _observe(x)
    assert (x.ne, x.nd, x.de, x.dd) == fields
    assert (rat_to_json(x), hash(x)) == (j, h)


@pytest.mark.xfail(strict=True, reason="products carry past 2**(LIMB_BITS-1) silently")
@pytest.mark.parametrize("base", [mk([1, 1]), RatFun(mk([1, 1]))], ids=["TPoly", "RatFun"])
def test_carry_past_limb_bound_is_caught(base):
    # binom(200, 100) has 196 bits, past the 191 a balanced 192-bit limb
    # holds: the product must either stay exact or raise PackingOverflow
    try:
        p = base
        for _ in range(199):
            p = p * base
        poly = p if isinstance(p, TPoly) else p.num
        coeff = poly.coeff_vector()[100]
    except PackingOverflow:
        return
    assert coeff == comb(200, 100)

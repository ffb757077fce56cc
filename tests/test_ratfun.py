"""Exact arithmetic in Q(t): packing, normalisation, field axioms."""

from fractions import Fraction
from math import comb, gcd, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from symfock.ratfun import (
    LIMB_BITS,
    RF_ONE,
    RF_ZERO,
    PackingOverflow,
    RatFun,
    _coeffs,
    _content_normalized,
    _digits,
    _limbs,
    _pack,
    _spread,
    _unspread,
    _width,
    poly_divmod,
    poly_gcd,
    poly_lcm,
    rat_from_json,
    rat_to_json,
    rf_inv_one_minus_t_pow,
    rf_one_minus_t_pow,
    sum_products,
)

small_fractions = st.fractions(
    min_value=-40, max_value=40, max_denominator=12
)
poly_coeffs = st.lists(small_fractions, min_size=0, max_size=7)


def mk(num, den=(1,)):
    return RatFun(num, den)


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


# -- packed polynomials inside RatFun -----------------------------------------


def test_trailing_zeros_stripped():
    p = mk([1, 2, 0, 0])
    assert p.num == (Fraction(1), Fraction(2))
    assert len(p.num) - 1 == 1
    assert mk([0, 0]).is_zero()


@settings(max_examples=150)
@given(poly_coeffs, poly_coeffs)
def test_packed_mul_matches_naive(a, b):
    assert (mk(a) * mk(b)).num == tuple(trimmed(naive_mul(a, b)))


@settings(max_examples=150)
@given(poly_coeffs, poly_coeffs)
def test_packed_add_matches_naive(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    assert (mk(a) + mk(b)).num == tuple(trimmed(out))


@given(poly_coeffs)
def test_roundtrip_coeffs(a):
    assert mk(a).num == tuple(trimmed(a))


def test_packing_overflow_rejected():
    with pytest.raises(PackingOverflow):
        RatFun([Fraction(1 << 200)])


def test_input_cap_is_2_pow_64():
    RatFun([(1 << 64) - 1], [Fraction(1, (1 << 64) - 1)])
    # a coefficient, or a common denominator, at 2**64 in num or den; the last
    # is the lcm 2**32 (2**32 + 1) of two denominators below the cap
    over = [[1 << 64], [-(1 << 64)], [Fraction(1, 1 << 64)], [Fraction(1, 1 << 32), Fraction(1, (1 << 32) + 1)]]
    for coeffs in over:
        for num, den in ((coeffs, [1]), ([1], coeffs)):
            with pytest.raises(PackingOverflow):
                RatFun(num, den)


def test_reduce_rebuilds_past_input_cap():
    # the quotient by the common factor t + 1 has a coefficient of 2**100,
    # above the input cap but far inside the packing bound
    big = mk([1 << 50, 3])
    r = big * big * mk([1, 1]) / mk([1, 1])
    assert r.num == (big * big).num and r.den == (1,)


def test_poly_divmod_exact():
    q, r = poly_divmod([-1, 0, 1], [-1, 1])  # t^2 - 1 by t - 1
    assert q == [1, 1] and r == []
    q, r = poly_divmod([1, 2, 1], [3, 1])
    assert mk(q) * mk([3, 1]) + mk(r) == mk([1, 2, 1])
    with pytest.raises(ZeroDivisionError):
        poly_divmod([1], [0, 0])


def test_poly_gcd_monic():
    g = poly_gcd([-1, 0, 1], [2, 4, 2])  # (t-1)(t+1), 2 (t+1)^2
    assert g == [1, 1]
    assert poly_gcd([], []) == []


# -- rational-function normalisation (spec examples) --------------------------


def test_normalize_cancels_factor():
    r = mk([-1, 0, 1], [-1, 1])  # (t^2-1)/(t-1)
    assert r.num == (Fraction(1), Fraction(1))  # t + 1
    assert r.den == (Fraction(1),)


def test_normalize_zero():
    r = mk([], [0, 0, 0, 1])
    assert r.num == () and r.den == (1,)


def test_normalize_constant_and_monic():
    r = mk([0, 2], [2])  # 2t / 2
    assert r.num == (Fraction(0), Fraction(1))
    assert r.den == (Fraction(1),)


def test_zero_denominator_rejected():
    for den in ([0], [], [0, 0]):
        with pytest.raises(ZeroDivisionError):
            RatFun([1], den)
    with pytest.raises(ZeroDivisionError):
        RF_ONE / mk([])


def test_field_op_examples():
    one_minus_t = rf_one_minus_t_pow(1)
    s = rf_inv_one_minus_t_pow(1) + mk([1], [1, 1])
    assert s == mk([2], [1, 0, -1])  # 2/(1-t^2)
    assert one_minus_t * rf_inv_one_minus_t_pow(1) == RF_ONE
    assert rf_one_minus_t_pow(2) / one_minus_t == mk([1, 1])


def test_eval_examples():
    inv = mk([1], [1, -1])
    assert inv.eval_at(0) == 1
    with pytest.raises(ZeroDivisionError):
        inv.eval_at(1)
    r = mk([1, 0, -1], [1, -1])
    assert r.eval_at(2) == 3  # equals 1 + t


small_int_polys = st.lists(st.integers(-6, 6), min_size=1, max_size=4).filter(any)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _monic(coeffs):
    return [Fraction(c) / Fraction(coeffs[-1]) for c in coeffs]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(small_int_polys, st.booleans()), min_size=1, max_size=3), small_int_polys)
@example([([-1, 1], True), ([1, 1], True)], [1, 0, 1])  # (t-1)(t^2+1), (t+1)(t^2+1)
@example([([1, 2], False), ([2, 4], False), ([0, 1], False)], [1])  # 1 + 2t, its double, and t
def test_poly_lcm_matches_sympy(sympy, cofactors, shared):
    # every drawn polynomial, times the shared factor where flagged
    polys = [[int(x) for x in (naive_mul(c, shared) if s else c)] for c, s in cofactors]
    dens = {_spread(p, LIMB_BITS): p for p in polys}
    q, quotients = poly_lcm(dens)
    t = sympy.Symbol("t")
    want = sympy.Poly(sympy.lcm_list([sympy.Poly(p[::-1], t).as_expr() for p in polys]), t)
    want = want.all_coeffs()[::-1]
    assert _monic(_coeffs(*q)) == _monic([Fraction(int(c)) for c in want])
    assert set(quotients) == set(dens)
    for d, p in dens.items():
        assert trimmed(naive_mul(_coeffs(*quotients[d]), p)) == list(_coeffs(*q))
    a, b = (polys * 2)[:2]  # a single drawn polynomial is paired with itself
    g = sympy.gcd(sympy.Poly(a[::-1], t), sympy.Poly(b[::-1], t)).all_coeffs()[::-1]
    assert poly_gcd(a, b) == _monic([Fraction(int(c)) for c in g])


rat_funs = st.builds(
    mk,
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
        assert x * x.inverse() == RF_ONE


# the keys of every caller: partitions, packed exponent ints and partition pairs
sum_keys = st.sampled_from([(), (2, 1), 0, 7, ((1,), (2,))])
# polynomials too, so that products on one key often share their denominator
sum_factors = st.one_of(rat_funs, st.builds(mk, poly_coeffs))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.tuples(sum_keys, sum_factors, sum_factors, st.sampled_from([-2, 0, 1, 3])), max_size=5),
    st.integers(min_value=0, max_value=5),
)
@example(
    [((2, 1), mk([1], [1, -1]), mk([1, 2], [3]), 3), (7, mk([1, 1], [2]), mk([5], [1, 0, 1]), 1), (7, mk([0]), mk([1]), -2)],
    1,
)  # (2, 1) cancels; 7 holds a zero product and t-denominators over distinct scalars
def test_sum_products_is_the_fold_of_scaled_products(terms, cancelled):
    # the first `cancelled` terms once more with a negated factor: their sums vanish
    terms = terms + [(key, -a, b, k) for key, a, b, k in terms[:cancelled]]
    want: dict = {}
    for key, a, b, k in terms:
        want[key] = want.get(key, RF_ZERO) + (a * b).scale(k)
    assert sum_products(terms) == {key: v for key, v in want.items() if v}


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


def digitwise_normalized(enc, den):
    """(enc, den) divided by gcd(content, den), computed digit by digit."""
    ds = _limbs(enc)
    g = gcd(*ds, den)
    return _encode([d // g for d in ds]), den // g


def packed(coeffs):
    """The least (enc, den) of coefficients given as Fractions in lowest terms."""
    den = lcm(*(c.denominator for c in coeffs))
    return _encode([int(c * den) for c in coeffs]), den


@st.composite
def packed_polys(draw, digit_bits=185):
    """Raw packed (enc, den) polynomials of one limb (constants) or several, of
    either sign, whose content carries a factor k that den may share."""
    bound = 2**digit_bits
    digits = draw(st.lists(st.integers(-bound, bound), min_size=1, max_size=5))
    k = draw(st.integers(1, 60))
    den = draw(st.integers(1, 10**6)) * draw(st.sampled_from([1, k, k * k]))
    return _encode([d * k for d in digits]), den


@settings(max_examples=300, deadline=None)
@given(packed_polys())
@example((_encode([1, 2]), 3))  # 3 divides enc = 1 + 2*2**192, not the content
@example((_encode([6, 0, -9]), 12))  # multi-limb, den shares 3 with the content
@example((_encode([-6]), 4))  # negative constant sharing 2 with den
@example((-(2**190), 2**10))  # single-limb constant at the top of the limb
def test_content_normalized_matches_digitwise(p):
    got = _content_normalized(*p)
    assert got == digitwise_normalized(*p)
    assert len(_limbs(got[0])) == len(_limbs(p[0]))
    assert hash(RatFun._raw(*p, 1, 1)) == hash((*digitwise_normalized(*p), 1, 1))


@settings(max_examples=60, deadline=None)
@given(packed_polys(digit_bits=40), packed_polys(digit_bits=40), st.integers(1, 30))
@example((_encode([6, 0, -9]), 12), (1, 1), 1)  # content 3 shared with nd over den 1
@example((_encode([-4]), 2), (1, 1), 5)
def test_ratfun_hash_matches_digitwise(n, d, k):
    assume(d[0] != 0)
    x = RatFun._raw(*n, *d)
    h = hash(x)
    assert h == hash((*packed(x.num), *packed(x.den)))
    # an equal value with a scaled representative hashes alike
    assert hash(RatFun._raw(n[0] * k, n[1] * k, *d)) == h
    # over den 1, a num whose digits share the content k with its nd
    y = RatFun._raw(n[0] * k, n[1] * k, 1, 1)
    assert hash(y) == hash((*digitwise_normalized(*n), 1, 1))
    assert packed(y.num) == digitwise_normalized(*n)


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
        lambda n, d: RatFun._raw(*n, *d),
        packed_polys(digit_bits=40),
        packed_polys(digit_bits=40).filter(lambda d: d[0] != 0),
    ),
)


@settings(max_examples=100, deadline=None)
@given(observed_rat_funs)
@example(mk([1], [1, 0, 0, -1]))  # canonical den is t^3 - 1: both signs flip
@example(mk([2, 4], [6, -3]))  # non-monic, content shared with the scalars
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
def test_carry_past_limb_bound_is_caught():
    # binom(200, 100) has 196 bits, past the 191 a balanced 192-bit limb
    # holds: the product must either stay exact or raise PackingOverflow
    base = mk([1, 1])
    try:
        p = base
        for _ in range(199):
            p = p * base
        coeff = p.num[100]
    except PackingOverflow:
        return
    assert coeff == comb(200, 100)

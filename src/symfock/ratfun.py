"""Exact arithmetic in Q and Q(t).

Coefficients of everything downstream live in the field Q(t) of rational
functions in a formal parameter t with rational coefficients.  Values are
immutable; all operations are pure.

Representation notes
--------------------
A polynomial is stored packed: its integer coefficient vector (after
clearing a single positive integer denominator ``den``) is evaluated at
t = 2**LIMB_BITS and kept as one Python int ``enc``.  Since evaluation at
a point is a ring homomorphism, addition and multiplication of packed
polynomials are single bigint operations; coefficients are only unpacked
at boundaries (normalisation, division, printing, JSON).  Packing is
faithful while every true coefficient stays below 2**(LIMB_BITS-1) in
absolute value; ``from_coeffs`` rejects outside data anywhere near the
bound (2**64 per coefficient), and the gcd and division rebuilds inside
normalisation are checked against the bound itself.  Products and sums
are not: a coefficient that outgrows the bound carries into the next
limb, silently, since every integer has a balanced digit vector that
re-encodes to it (a per-value limb width is the open fix).

The digit codec is the package's one packed-digit format: ``_pack`` and
``_digits`` write and read ``count`` balanced digits through one cache of
the half-digit offset (``_offset``), ``_spread`` and ``_unspread`` put a
single polynomial at t = 2**width and read it back, and ``_width`` sizes
a width from a digit bound.  ``fock`` packs and reads every column
through it, choosing only its slot layout and widths; the silent carry
past LIMB_BITS above is still this module's open problem.

Rational functions are kept as num/den pairs of polynomials.  The
canonical form (gcd(num, den) = 1 over Q[t], den monic) required for
hashing and serialisation is computed lazily and memoised beside the
fields, which never change; arithmetic does not reduce.  Equality and
zero tests are exact without reduction.
"""

from __future__ import annotations

import re
import struct
import sys
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

LIMB_BITS = 192
_HALF = 1 << (LIMB_BITS - 1)
# from_coeffs cap on outside data; internal rebuilds are checked against _HALF
_INPUT_BOUND = 1 << 64
# memoryview formats that read one whole digit per item, by width in bits
_WORDS = {8 * struct.calcsize(f): f for f in ("Q", "I")} if sys.byteorder == "little" else {}

# a packed coefficient: an int for a constant, else its integer digits ascending in t
Digits = int | tuple[int, ...]


class PackingOverflow(OverflowError):
    """Raised when a coefficient cannot be packed faithfully."""


def _spread(c: Sequence[int], width: int) -> int:
    """sum_k c[k] * 2**(width*k): the polynomial c(t) at t = 2**width."""
    out = 0
    for d in reversed(c):
        out = (out << width) + d
    return out


def _width(bits: int) -> int:
    """The least multiple of 32 above bits: the width of digits below 2**bits, a sign bit to spare."""
    return (bits // 32 + 1) * 32


_offsets: dict[tuple[int, int], tuple[bytes, int]] = {}


def _offset(width: int, count: int) -> tuple[bytes, int]:
    """Half a digit, 2**(width-1), in each of count slots: as little-endian bytes and as an int."""
    out = _offsets.get((width, count))
    if out is None:
        pattern = (bytes(width // 8 - 1) + b"\x80") * count
        out = _offsets[width, count] = (pattern, int.from_bytes(pattern, "little"))
    return out


def _pack(slots: Iterable[tuple[int, int]], width: int, count: int) -> int:
    """sum d * 2**(width*i) over (i, d), 0 <= i < count and every d a balanced
    digit, in [-2**(width-1), 2**(width-1)): one from_bytes, the slots written
    as machine words at 32 and 64 bits."""
    size, half = width // 8, 1 << (width - 1)
    pattern, offset = _offset(width, count)
    buf = bytearray(pattern)
    word = _WORDS.get(width)
    if word is not None:
        view = memoryview(buf).cast(word)
        for i, d in slots:
            view[i] = d + half
    else:
        for i, d in slots:
            buf[i * size : (i + 1) * size] = (d + half).to_bytes(size, "little")
    return int.from_bytes(buf, "little") - offset


def _digits(x: int, width: int, count: int) -> list[int]:
    """All count balanced base-2**width digits of x ascending, the inverse of
    `_pack`: one to_bytes, read as machine words at 32 and 64 bits.  Raises
    OverflowError (never wraps) when x needs more than count digits."""
    size, half = width // 8, 1 << (width - 1)
    pattern, offset = _offset(width, count)
    raw = (x + offset).to_bytes(len(pattern), "little")
    word = _WORDS.get(width)
    if word is not None:
        return [v - half for v in memoryview(raw).cast(word).tolist()]
    return [int.from_bytes(raw[i * size : (i + 1) * size], "little") - half for i in range(count)]


def _unspread(x: int, width: int) -> Digits:
    """The balanced base-2**width digits of x != 0, in [-2**(width-1), 2**(width-1)), ascending
    with no trailing zero, an int for a constant: the inverse of `_spread` (width a multiple
    of 32)."""
    # a limb to spare: just below 2**(width*k-1), a top digit of 2**(width-1) carries into limb k+1
    out = _digits(x, width, (x.bit_length() + 1) // width + 1)
    while not out[-1]:
        out.pop()
    return out[0] if len(out) == 1 else tuple(out)


def _limbs(x: int) -> tuple[int, ...]:
    """The balanced LIMB_BITS digits of x ascending, as a tuple, () for 0."""
    if -_HALF <= x < _HALF:
        return (x,) if x else ()
    return _unspread(x, LIMB_BITS)


def _gcd_list(values: Iterable[int]) -> int:
    g = 0
    for v in values:
        g = gcd(g, v)
        if g == 1:
            return 1
    return g


class TPoly:
    """A univariate polynomial in t with rational coefficients."""

    __slots__ = ("enc", "den", "_deg")

    def __init__(self, enc: int, den: int, _deg: int | None = None):
        # raw constructor: trusts enc/den; use from_coeffs for checked input
        self.enc = enc
        self.den = den
        self._deg = _deg

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[Fraction | int]) -> "TPoly":
        """Build from coefficients ascending in t; trailing zeros are dropped.

        This is the checked entry for outside data: integer coefficients
        and the common denominator are capped at _INPUT_BOUND.
        """
        out = _pack_fractions(coeffs, _INPUT_BOUND)
        if out.den >= _INPUT_BOUND:
            raise PackingOverflow("coefficient too large for packed representation")
        return out

    @classmethod
    def from_int(cls, v: int) -> "TPoly":
        return cls.from_coeffs([Fraction(v)])

    def is_zero(self) -> bool:
        return self.enc == 0

    def __bool__(self) -> bool:
        return self.enc != 0

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        if self._deg is None:
            self._deg = len(_limbs(self.enc)) - 1
        return self._deg

    def coeff_vector(self) -> tuple[Fraction, ...]:
        """Coefficients ascending in t, trailing zeros stripped."""
        return tuple(Fraction(d, self.den) for d in _limbs(self.enc))

    def content_normalized(self) -> "TPoly":
        """Equal value with gcd(integer content, den) = 1."""
        if self.enc == 0:
            return ZERO
        ds = _limbs(self.enc)
        g = gcd(_gcd_list(ds), self.den)
        if g == 1:
            return self
        return TPoly(_spread([d // g for d in ds], LIMB_BITS), self.den // g, self._deg)

    def __add__(self, other: "TPoly") -> "TPoly":
        if self.den == other.den:
            return TPoly(self.enc + other.enc, self.den)
        g = gcd(self.den, other.den)
        m1 = other.den // g
        m2 = self.den // g
        return TPoly(self.enc * m1 + other.enc * m2, self.den * m1)

    def __sub__(self, other: "TPoly") -> "TPoly":
        if self.den == other.den:
            return TPoly(self.enc - other.enc, self.den)
        g = gcd(self.den, other.den)
        m1 = other.den // g
        m2 = self.den // g
        return TPoly(self.enc * m1 - other.enc * m2, self.den * m1)

    def __mul__(self, other: "TPoly") -> "TPoly":
        if self.enc == 0 or other.enc == 0:
            return ZERO
        deg = None
        if self._deg is not None and other._deg is not None:
            deg = self._deg + other._deg
        return TPoly(self.enc * other.enc, self.den * other.den, deg)

    def __neg__(self) -> "TPoly":
        return TPoly(-self.enc, self.den, self._deg)

    def scale(self, c: Fraction) -> "TPoly":
        if c == 0 or self.enc == 0:
            return ZERO
        return TPoly(self.enc * c.numerator, self.den * c.denominator, self._deg)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TPoly):
            return NotImplemented
        if self.den == other.den:
            return self.enc == other.enc
        return self.enc * other.den == other.enc * self.den

    def __hash__(self) -> int:
        n = self.content_normalized()
        return hash((n.enc, n.den))

    def eval_at(self, t0: Fraction) -> Fraction:
        acc = Fraction(0)
        for d in reversed(_limbs(self.enc)):
            acc = acc * t0 + d
        return acc / self.den

    def leading_coeff(self) -> Fraction:
        ds = _limbs(self.enc)
        if not ds:
            return Fraction(0)
        return Fraction(ds[-1], self.den)

    def __repr__(self) -> str:
        if self.enc == 0:
            return "TPoly(0)"
        parts = []
        for i, c in enumerate(self.coeff_vector()):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{i}")
        return "TPoly(" + " + ".join(parts) + ")"


def _pack_fractions(coeffs: Iterable[Fraction | int], bound: int) -> TPoly:
    """Pack coefficients ascending in t, trailing zeros dropped.

    After clearing the common denominator, every integer coefficient must
    be below bound in absolute value.
    """
    fracs = [Fraction(c) for c in coeffs]
    while fracs and fracs[-1] == 0:
        fracs.pop()
    if not fracs:
        return ZERO
    den = 1
    for c in fracs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in fracs]
    if any(abs(v) >= bound for v in ints):
        raise PackingOverflow("coefficient too large for packed representation")
    return TPoly(_spread(ints, LIMB_BITS), den, len(ints) - 1)


ZERO = TPoly(0, 1, -1)
ONE = TPoly(1, 1, 0)
T = TPoly(1 << LIMB_BITS, 1, 1)

_omtp_cache: dict[int, TPoly] = {}


def one_minus_t_pow(n: int) -> TPoly:
    """The polynomial 1 - t**n."""
    p = _omtp_cache.get(n)
    if p is None:
        p = TPoly(1 - (1 << (LIMB_BITS * n)), 1, n)
        _omtp_cache[n] = p
    return p


def poly_divmod(a: TPoly, b: TPoly) -> tuple[TPoly, TPoly]:
    """Exact Euclidean division over Q[t]."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    ra = list(a.coeff_vector())
    rb = list(b.coeff_vector())
    if len(ra) < len(rb):
        return ZERO, a
    quot = [Fraction(0)] * (len(ra) - len(rb) + 1)
    lead = rb[-1]
    for i in range(len(ra) - len(rb), -1, -1):
        c = ra[i + len(rb) - 1] / lead
        if c:
            quot[i] = c
            for j, bc in enumerate(rb):
                ra[i + j] -= c * bc
    return _pack_fractions(quot, _HALF), _pack_fractions(ra[: len(rb) - 1], _HALF)


def poly_gcd(a: TPoly, b: TPoly) -> TPoly:
    """Monic gcd over Q[t]; gcd(0, 0) = 0."""
    ca = list(a.coeff_vector())
    cb = list(b.coeff_vector())
    while cb:
        ra = ca
        lead = cb[-1]
        while len(ra) >= len(cb):
            c = ra[-1] / lead
            for j in range(len(cb)):
                ra[len(ra) - len(cb) + j] -= c * cb[j]
            while ra and ra[-1] == 0:
                ra.pop()
        ca, cb = cb, ra
    if not ca:
        return ZERO
    lead = ca[-1]
    return _pack_fractions([c / lead for c in ca], _HALF)


class RatFun:
    """An element of Q(t): a ratio of two TPoly values, den != 0.

    Stored flat as four ints (ne, nd, de, dd) meaning (ne/nd)/(de/dd)
    with ne, de packed polynomials and nd, dd positive scalar
    denominators, so the field operations are a handful of bigint
    multiplications with no intermediate objects.  Arithmetic is exact
    but lazy: the canonical reduced, monic-denominator form is only
    computed when observed through .num/.den, hashing, evaluation or
    serialisation.  Equality and zero tests are exact on unreduced
    representatives.  The four fields never change after construction;
    _canon memoises the canonical form as False (not computed yet), True
    (these fields are canonical) or the canonical twin, never self, so a
    canonical value is not a reference cycle.
    """

    __slots__ = ("ne", "nd", "de", "dd", "_canon")

    def __init__(self, num: TPoly, den: TPoly = ONE):
        if den.enc == 0:
            raise ZeroDivisionError("rational function with zero denominator")
        self.ne = num.enc
        self.nd = num.den
        self.de = den.enc
        self.dd = den.den
        # RatFun(num) is canonical when num is content-normalised, as it is over den 1
        self._canon = den.enc == 1 and den.den == 1 and num.den == 1

    @classmethod
    def _raw(cls, ne: int, nd: int, de: int, dd: int, canon: "bool | RatFun" = False) -> "RatFun":
        out = object.__new__(cls)
        out.ne = ne
        out.nd = nd
        out.de = de
        out.dd = dd
        out._canon = canon
        return out

    @classmethod
    def from_int(cls, v: int) -> "RatFun":
        if v == 0:
            return RF_ZERO
        if v == 1:
            return RF_ONE
        return cls._raw(v, 1, 1, 1, True)

    @classmethod
    def from_ratio(cls, a: int, b: int) -> "RatFun":
        """The constant a/b, b > 0, reduced by one gcd (canonical form)."""
        g = gcd(a, b)
        return cls._raw(a // g, b // g, 1, 1, True)

    @classmethod
    def from_fraction(cls, c: Fraction | int) -> "RatFun":
        c = Fraction(c)
        if c == 0:
            return RF_ZERO
        if c == 1:
            return RF_ONE
        return cls._raw(c.numerator, c.denominator, 1, 1, True)

    @classmethod
    def from_poly(cls, digits: Sequence[int], den: int) -> "RatFun":
        """The polynomial sum_k digits[k] t**k / den, den > 0, in canonical form:
        the content shared with den divided out by one gcd per digit."""
        g = den
        for d in digits:
            if not -_HALF < d < _HALF:
                raise PackingOverflow("coefficient too large for packed representation")
            g = gcd(g, d)
        return cls._raw(_spread([d // g for d in digits], LIMB_BITS), den // g, 1, 1, True)

    def _reduce(self) -> "RatFun":
        """The canonical form (gcd(num, den) = 1, den monic, content-normalised):
        self if these fields are canonical, else the memoised twin."""
        canon = self._canon
        if canon is True:
            return self
        if canon is not False:
            return canon
        num = TPoly(self.ne, self.nd)
        den = TPoly(self.de, self.dd)
        g = poly_gcd(num, den)
        if g.degree > 0:
            num, _ = poly_divmod(num, g)
            den, _ = poly_divmod(den, g)
        lead = den.leading_coeff()
        if lead != 1:
            inv = 1 / lead
            num = num.scale(inv)
            den = den.scale(inv)
        num = num.content_normalized()
        den = den.content_normalized()
        fields = (num.enc, num.den, den.enc, den.den)
        if fields == (self.ne, self.nd, self.de, self.dd):
            self._canon = True
            return self
        self._canon = RatFun._raw(*fields, True)
        return self._canon

    @property
    def num(self) -> TPoly:
        c = self._reduce()
        return TPoly(c.ne, c.nd)

    @property
    def den(self) -> TPoly:
        c = self._reduce()
        return TPoly(c.de, c.dd)

    def is_zero(self) -> bool:
        return self.ne == 0

    def __bool__(self) -> bool:
        return self.ne != 0

    def poly_parts(self) -> "tuple[int | tuple[int, ...], int] | None":
        """(c, b) with b > 0 and value c(t)/b when the packed denominator is a
        constant, else None; c is an int for a constant, else the digits of
        c(t) ascending in t.

        A nonzero digit above limb 0 puts a packed value at or past _HALF,
        so the range tests read constancy without unpacking.
        """
        de = self.de
        if not -_HALF < de < _HALF:
            return None
        ne = self.ne
        s = self.dd if de > 0 else -self.dd
        b = self.nd * abs(de)
        if -_HALF < ne < _HALF:
            return ne * s, b
        return tuple(d * s for d in _limbs(ne)), b

    def __add__(self, other: "RatFun") -> "RatFun":
        if self.ne == 0:
            return other
        if other.ne == 0:
            return self
        if self.de == other.de and self.dd == other.dd:
            nd1, nd2 = self.nd, other.nd
            if nd1 == nd2:
                return RatFun._raw(self.ne + other.ne, nd1, self.de, self.dd)
            g = gcd(nd1, nd2)
            m1 = nd2 // g
            return RatFun._raw(self.ne * m1 + other.ne * (nd1 // g), nd1 * m1, self.de, self.dd)
        b1 = self.nd * other.dd
        b2 = other.nd * self.dd
        g = gcd(b1, b2)
        m1 = b2 // g
        m2 = b1 // g
        return RatFun._raw(
            self.ne * other.de * m1 + other.ne * self.de * m2,
            b1 * m1,
            self.de * other.de,
            self.dd * other.dd,
        )

    def __sub__(self, other: "RatFun") -> "RatFun":
        if other.ne == 0:
            return self
        return self + RatFun._raw(-other.ne, other.nd, other.de, other.dd)

    def __mul__(self, other: "RatFun") -> "RatFun":
        if self.ne == 0 or other.ne == 0:
            return RF_ZERO
        if other.de == 1:
            return RatFun._raw(
                self.ne * other.ne, self.nd * other.nd, self.de, self.dd * other.dd
            )
        if self.de == 1:
            return RatFun._raw(
                self.ne * other.ne, self.nd * other.nd, other.de, self.dd * other.dd
            )
        return RatFun._raw(
            self.ne * other.ne,
            self.nd * other.nd,
            self.de * other.de,
            self.dd * other.dd,
        )

    def __truediv__(self, other: "RatFun") -> "RatFun":
        if other.ne == 0:
            raise ZeroDivisionError("division by zero rational function")
        if self.ne == 0:
            return RF_ZERO
        return RatFun._raw(
            self.ne * other.de,
            self.nd * other.dd,
            self.de * other.ne,
            self.dd * other.nd,
        )

    def __neg__(self) -> "RatFun":
        return RatFun._raw(-self.ne, self.nd, self.de, self.dd)

    def inverse(self) -> "RatFun":
        if self.ne == 0:
            raise ZeroDivisionError("inverse of zero")
        return RatFun._raw(self.de, self.dd, self.ne, self.nd)

    def scale(self, c: Fraction | int) -> "RatFun":
        c = Fraction(c)
        if c == 0 or self.ne == 0:
            return RF_ZERO
        return RatFun._raw(self.ne * c.numerator, self.nd * c.denominator, self.de, self.dd)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatFun):
            return NotImplemented
        if self.de == other.de and self.dd == other.dd and self.nd == other.nd:
            return self.ne == other.ne
        return self.ne * other.de * (other.nd * self.dd) == other.ne * self.de * (
            self.nd * other.dd
        )

    def __hash__(self) -> int:
        c = self._reduce()
        return hash((c.ne, c.nd, c.de, c.dd))

    def eval_at(self, t0: Fraction | int) -> Fraction:
        """Exact evaluation at t = t0; raises on a pole."""
        t0 = Fraction(t0)
        c = self._reduce()
        dv = TPoly(c.de, c.dd).eval_at(t0)
        if dv == 0:
            raise ZeroDivisionError(f"pole at t = {t0}")
        return TPoly(c.ne, c.nd).eval_at(t0) / dv

    def __repr__(self) -> str:
        c = self._reduce()
        if c.de == 1 and c.dd == 1:
            return f"RatFun({TPoly(c.ne, c.nd)!r})"
        return f"RatFun({TPoly(c.ne, c.nd)!r} / {TPoly(c.de, c.dd)!r})"


RF_ZERO = RatFun(ZERO)
RF_ONE = RatFun(ONE)
RF_T = RatFun(T)

_omtp_rf_cache: dict[int, RatFun] = {}
_inv_omtp_rf_cache: dict[int, RatFun] = {}


def rf_one_minus_t_pow(n: int) -> RatFun:
    """(1 - t**n) as a rational function."""
    r = _omtp_rf_cache.get(n)
    if r is None:
        r = RatFun(one_minus_t_pow(n))
        _omtp_rf_cache[n] = r
    return r


def rf_inv_one_minus_t_pow(n: int) -> RatFun:
    """1/(1 - t**n) as a rational function."""
    r = _inv_omtp_rf_cache.get(n)
    if r is None:
        r = RatFun(ONE, one_minus_t_pow(n))
        _inv_omtp_rf_cache[n] = r
    return r


_FRACTION_RE = re.compile(r"^-?\d+(/\d+)?$")


def _fraction_from_str(s: str) -> Fraction:
    if not isinstance(s, str) or not _FRACTION_RE.match(s.strip()):
        raise ValueError(f"malformed rational literal: {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational literal: {s!r}") from None


def rat_to_json(r: RatFun) -> dict:
    """Canonical JSON form {"num": [...], "den": [...]}, coefficients ascending in t."""
    return {
        "num": [str(c) for c in r.num.coeff_vector()],
        "den": [str(c) for c in r.den.coeff_vector()],
    }


def rat_from_json(obj: object) -> RatFun:
    """Parse {"num": [...], "den": [...]}; "den" defaults to ["1"]."""
    if not isinstance(obj, dict) or "num" not in obj or set(obj) - {"num", "den"}:
        raise ValueError("rational function JSON must be {'num': [...], 'den': [...]}")
    num_strs, den_strs = obj["num"], obj.get("den", ["1"])
    if not isinstance(num_strs, list) or not isinstance(den_strs, list):
        raise ValueError("rational function 'num' and 'den' must be lists of rational strings")
    try:
        num = TPoly.from_coeffs(_fraction_from_str(s) for s in num_strs)
        den = TPoly.from_coeffs(_fraction_from_str(s) for s in den_strs)
    except PackingOverflow as exc:
        raise ValueError(f"rational function JSON out of range: {exc}") from None
    if den.is_zero():
        raise ValueError("zero denominator in rational function JSON")
    return RatFun(num, den)._reduce()

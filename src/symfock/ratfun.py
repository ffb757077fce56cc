"""Exact arithmetic in Q and Q(t).

Coefficients of everything downstream live in the field Q(t) of rational
functions in a formal parameter t with rational coefficients.  Values are
immutable; all operations are pure.

Representation notes
--------------------
``RatFun`` is the one value type of Q(t); a polynomial outside it is a
coefficient list ascending in t (``poly_gcd``, ``poly_divmod``, and the
``num``/``den`` a value reports).  Inside a RatFun a polynomial is stored
packed: its integer coefficient vector (after clearing a single positive
integer denominator) is evaluated at t = 2**LIMB_BITS and kept as one
Python int.  Since evaluation at a point is a ring homomorphism, addition
and multiplication of packed polynomials are single bigint operations;
coefficients are only unpacked at boundaries (normalisation, division,
printing, JSON).

``RatFun(num, den=(1,))`` takes coefficient sequences ascending in t and
is the checked entry for outside data: an integer coefficient or common
denominator of 2**64 or more raises PackingOverflow, and a zero
denominator ([0], [] or [0, 0]) raises ZeroDivisionError.  Packing is
faithful while every true coefficient stays below 2**(LIMB_BITS-1) in
absolute value; the gcd and division rebuilds inside normalisation are
checked against that bound itself.  Products and sums of the packed
fields ``ne`` and ``de`` are not, and only three places form them:
RatFun's operators, ``sum_products`` (a keyed sum of products) and
``pull`` (an lcm of t-denominators pulled out in front).  There a
coefficient that outgrows the bound carries into the next limb, silently,
since every integer has a balanced digit vector that re-encodes to it (a
per-value limb width is the open fix).  No other module reads the fields.

The digit codec is the package's one packed-digit format: ``_pack`` and
``_digits`` write and read ``count`` balanced digits through one cache of
the half-digit offset (``_offset``), ``_spread`` and ``_unspread`` put a
single polynomial at t = 2**width and read it back, and ``_width`` sizes
a width from a digit bound.  ``fock`` packs and reads every column
through it, choosing only its slot layout and widths; the silent carry
past LIMB_BITS above is still this module's open problem.

A RatFun keeps its numerator and denominator unreduced.  The
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
from functools import cache
from math import gcd
from typing import Collection, Hashable, Iterable, Sequence

LIMB_BITS = 192
_HALF = 1 << (LIMB_BITS - 1)
# RatFun(num, den) cap on outside data; internal rebuilds are checked against _HALF
_INPUT_BOUND = 1 << 64
# memoryview formats that read one whole digit per item, by width in bits
_WORDS = {8 * struct.calcsize(f): f for f in ("Q", "I")} if sys.byteorder == "little" else {}

# a packed coefficient: an int for a constant, else its integer digits ascending in t
Digits = int | tuple[int, ...]
# the packed fields (ne, nd, de, dd) of a RatFun
Fields = tuple[int, int, int, int]


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


@cache
def _offset(width: int, count: int) -> tuple[bytes, int]:
    """Half a digit, 2**(width-1), in each of count slots: as little-endian bytes and as an int."""
    pattern = (bytes(width // 8 - 1) + b"\x80") * count
    return pattern, int.from_bytes(pattern, "little")


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


def _trimmed(coeffs: Iterable[Fraction | int]) -> list[Fraction | int]:
    """The coefficients as a new list, trailing zeros dropped."""
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return out


def _coeffs(enc: int, den: int) -> tuple[Fraction, ...]:
    """The coefficients of the packed polynomial enc / den ascending in t, trailing zeros stripped."""
    return tuple(Fraction(d, den) for d in _limbs(enc))


def _content_normalized(enc: int, den: int) -> tuple[int, int]:
    """(enc, den) of the same packed polynomial with gcd(integer content, den) = 1."""
    if enc == 0:
        return 0, 1
    ds = _limbs(enc)
    g = gcd(_gcd_list(ds), den)
    if g == 1:
        return enc, den
    return _spread([d // g for d in ds], LIMB_BITS), den // g


def _pack_fractions(coeffs: Iterable[Fraction | int], bound: int) -> tuple[int, int]:
    """Coefficients ascending in t as a packed (enc, den), trailing zeros dropped.

    After clearing the common denominator, every integer coefficient must
    be below bound in absolute value.
    """
    fracs = _trimmed(map(Fraction, coeffs))
    if not fracs:
        return 0, 1
    den = 1
    for c in fracs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in fracs]
    if any(abs(v) >= bound for v in ints):
        raise PackingOverflow("coefficient too large for packed representation")
    return _spread(ints, LIMB_BITS), den


def _pack_input(coeffs: Iterable[Fraction | int]) -> tuple[int, int]:
    """`_pack_fractions` for outside data: the common denominator is capped too."""
    enc, den = _pack_fractions(coeffs, _INPUT_BOUND)
    if den >= _INPUT_BOUND:
        raise PackingOverflow("coefficient too large for packed representation")
    return enc, den


def poly_divmod(a: Sequence[Fraction | int], b: Sequence[Fraction | int]) -> tuple[list[Fraction], list[Fraction]]:
    """Exact Euclidean division over Q[t] of coefficient lists ascending in t:
    (quotient, remainder), each with no trailing zero."""
    ra, rb = _trimmed(a), _trimmed(b)
    if not rb:
        raise ZeroDivisionError("polynomial division by zero")
    if len(ra) < len(rb):
        return [], ra
    quot = [Fraction(0)] * (len(ra) - len(rb) + 1)
    lead = Fraction(rb[-1])
    for i in range(len(ra) - len(rb), -1, -1):
        c = ra[i + len(rb) - 1] / lead
        if c:
            quot[i] = c
            for j, bc in enumerate(rb):
                ra[i + j] -= c * bc
    return quot, _trimmed(ra[: len(rb) - 1])


def poly_gcd(a: Sequence[Fraction | int], b: Sequence[Fraction | int]) -> list[Fraction]:
    """Monic gcd over Q[t] of coefficient lists ascending in t; gcd(0, 0) = []."""
    ca, cb = _trimmed(a), _trimmed(b)
    while cb:
        ca, cb = cb, poly_divmod(ca, cb)[1]
    if not ca:
        return []
    lead = Fraction(ca[-1])
    return [c / lead for c in ca]


def poly_lcm(dens: Collection[int]) -> tuple[tuple[int, int], dict[int, tuple[int, int]]]:
    """The lcm Q of the nonzero packed integer polynomials dens, as a packed
    (enc, den), and each exact quotient Q / d as a packed (enc, den), by d."""
    q = (1, 1)
    for d in dens:
        c = _coeffs(d, 1)
        k = _pack_fractions(poly_divmod(c, poly_gcd(_coeffs(*q), c))[0], _HALF)
        q = (q[0] * k[0], q[1] * k[1])
    qc = _coeffs(*q)
    return q, {d: _pack_fractions(poly_divmod(qc, _coeffs(d, 1))[0], _HALF) for d in dens}


def pull(pairs: list[tuple[RatFun, object]]) -> tuple[list[tuple[Digits, int, object]], RatFun | None]:
    """Each (coeff, x) as (c, b, x) with c(t)/b = Q * coeff, and 1/Q (None for
    Q = 1), Q the lcm of the t-denominators of the coefficients outside Z[t]/b."""
    out = []
    for r, x in pairs:
        p = r.poly_parts()
        if p is None:
            break
        out.append((*p, x))
    else:
        return out, None
    (qe, qd), quotients = poly_lcm({r.de for r, _ in pairs if r.poly_parts() is None})
    out = []
    for r, x in pairs:
        k = quotients.get(r.de)
        if k is None:
            out.append((*RatFun._raw(r.ne * qe, r.nd * qd, r.de, r.dd).poly_parts(), x))
        else:
            out.append((*RatFun._raw(r.ne * r.dd * k[0], r.nd * k[1], 1, 1).poly_parts(), x))
    return out, RatFun._raw(1, 1, qe, qd)


def _add_fields(ne1: int, nd1: int, de1: int, dd1: int, ne2: int, nd2: int, de2: int, dd2: int) -> Fields:
    """The fields (ne, nd, de, dd) of the sum of two values given by theirs:
    over the shared denominator when de and dd agree, else over the product
    of the denominators, with the scalar parts brought to their lcm."""
    if de1 == de2 and dd1 == dd2:
        if nd1 == nd2:
            return ne1 + ne2, nd1, de1, dd1
        g = gcd(nd1, nd2)
        m1 = nd2 // g
        return ne1 * m1 + ne2 * (nd1 // g), nd1 * m1, de1, dd1
    b1 = nd1 * dd2
    b2 = nd2 * dd1
    g = gcd(b1, b2)
    m1 = b2 // g
    return ne1 * de2 * m1 + ne2 * de1 * (b1 // g), b1 * m1, de1 * de2, dd1 * dd2


class RatFun:
    """An element of Q(t): a ratio of two polynomials, den != 0.

    RatFun(num, den) takes their coefficients ascending in t, as the module
    notes say.  Stored flat as four ints (ne, nd, de, dd) meaning
    (ne/nd)/(de/dd) with ne, de packed polynomials and nd, dd positive
    scalar denominators, so the field operations are a handful of bigint
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

    def __init__(self, num: Iterable[Fraction | int], den: Iterable[Fraction | int] = (1,)):
        self.ne, self.nd = _pack_input(num)
        self.de, self.dd = _pack_input(den)
        if self.de == 0:
            raise ZeroDivisionError("rational function with zero denominator")
        # RatFun(num) is canonical when num is content-normalised, as it is over den 1
        self._canon = self.de == 1 and self.dd == 1 and self.nd == 1

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
        ne, nd, de, dd = self.ne, self.nd, self.de, self.dd
        num, den = _coeffs(ne, nd), _coeffs(de, dd)
        g = poly_gcd(num, den)
        if len(g) > 1:
            ne, nd = _pack_fractions(poly_divmod(num, g)[0], _HALF)
            de, dd = _pack_fractions(poly_divmod(den, g)[0], _HALF)
        lead = Fraction(_limbs(de)[-1], dd)
        if lead != 1:
            inv = 1 / lead
            ne, nd = ne * inv.numerator, nd * inv.denominator
            de, dd = de * inv.numerator, dd * inv.denominator
        fields = (*_content_normalized(ne, nd), *_content_normalized(de, dd))
        if fields == (self.ne, self.nd, self.de, self.dd):
            self._canon = True
            return self
        self._canon = RatFun._raw(*fields, True)
        return self._canon

    @property
    def num(self) -> tuple[Fraction, ...]:
        """The canonical numerator's coefficients ascending in t, () for zero."""
        c = self._reduce()
        return _coeffs(c.ne, c.nd)

    @property
    def den(self) -> tuple[Fraction, ...]:
        """The canonical (monic) denominator's coefficients ascending in t."""
        c = self._reduce()
        return _coeffs(c.de, c.dd)

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

    def poly_parts_over(self, v: int) -> "tuple[Digits, int, int] | None":
        """(c, b, k) with b > 0 and value c(t) / (b (1-t^v)**k) when the packed
        denominator is a constant times a power of 1 - t^v, else None; k = 0
        is the `poly_parts` answer, read without building a value."""
        p = self.poly_parts()
        if p is not None:
            return (*p, 0)
        k, rem = divmod(len(_limbs(self.de)) - 1, v)
        s, rest = divmod(self.de, (1 - (1 << (LIMB_BITS * v))) ** k)
        if rem or rest:
            return None
        p = RatFun._raw(self.ne, self.nd, s, self.dd).poly_parts()
        return None if p is None else (*p, k)

    def __add__(self, other: "RatFun") -> "RatFun":
        if self.ne == 0:
            return other
        if other.ne == 0:
            return self
        return RatFun._raw(*_add_fields(self.ne, self.nd, self.de, self.dd, other.ne, other.nd, other.de, other.dd))

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
        nv, dv = (sum(c * t0**i for i, c in enumerate(cs)) for cs in (self.num, self.den))
        if dv == 0:
            raise ZeroDivisionError(f"pole at t = {t0}")
        return nv / dv

    def __repr__(self) -> str:
        num, den = (" + ".join(f"{c}*t^{i}" if i else str(c) for i, c in enumerate(cs) if c)
                    for cs in (self.num, self.den))
        return f"RatFun({num or 0})" if den == "1" else f"RatFun(({num}) / ({den}))"


RF_ZERO = RatFun._raw(0, 1, 1, 1, True)
RF_ONE = RatFun._raw(1, 1, 1, 1, True)
RF_T = RatFun._raw(1 << LIMB_BITS, 1, 1, 1, True)


def sum_products(terms: Iterable[tuple[Hashable, RatFun, RatFun, int]]) -> dict[Hashable, RatFun]:
    """sum a * b * k per key over the terms (key, a, b, k), one RatFun per
    key whose sum is nonzero.

    A key's bucket is the 4-tuple of packed fields of its first product,
    merged by `_add_fields` (the arithmetic of `RatFun.__add__`) only when
    a second product lands on it, so no object is built per term.
    """
    buckets: dict[Hashable, Fields] = {}
    get = buckets.get
    for key, a, b, k in terms:
        ade, bde = a.de, b.de
        p = (a.ne * b.ne * k, a.nd * b.nd, ade if bde == 1 else bde if ade == 1 else ade * bde, a.dd * b.dd)
        acc = get(key)
        buckets[key] = p if acc is None else _add_fields(*acc, *p)
    return {key: RatFun._raw(*fields) for key, fields in buckets.items() if fields[0]}


@cache
def rf_one_minus_t_pow(n: int) -> RatFun:
    """(1 - t**n) as a rational function."""
    return RatFun._raw(1 - (1 << (LIMB_BITS * n)), 1, 1, 1, True)


@cache
def rf_inv_one_minus_t_pow(n: int) -> RatFun:
    """1/(1 - t**n) as a rational function."""
    return RatFun._raw(1, 1, 1 - (1 << (LIMB_BITS * n)), 1)


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
    return {"num": [str(c) for c in r.num], "den": [str(c) for c in r.den]}


def rat_from_json(obj: object) -> RatFun:
    """Parse {"num": [...], "den": [...]}; "den" defaults to ["1"]."""
    if not isinstance(obj, dict) or "num" not in obj or set(obj) - {"num", "den"}:
        raise ValueError("rational function JSON must be {'num': [...], 'den': [...]}")
    num_strs, den_strs = obj["num"], obj.get("den", ["1"])
    if not isinstance(num_strs, list) or not isinstance(den_strs, list):
        raise ValueError("rational function 'num' and 'den' must be lists of rational strings")
    try:
        # num is read and packed before den is read, so the first bad entry is the one named
        r = RatFun((_fraction_from_str(s) for s in num_strs), (_fraction_from_str(s) for s in den_strs))
    except PackingOverflow as exc:
        raise ValueError(f"rational function JSON out of range: {exc}") from None
    except ZeroDivisionError:
        raise ValueError("zero denominator in rational function JSON") from None
    return r._reduce()

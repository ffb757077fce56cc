"""Charged boson Fock space and mode-indexed vertex operators.

The Fock space is B = (+)_m B^(m) with B^(m) = z^m Lambda[t]; a vector is
a charge m together with a symmetric-function body.  Every vertex
operator used here is an instance of one kernel shape

    K(u) = R(u)**eps * exp( sum_n a_n p_n u**-n / n ) * exp( sum_n c_n d/dp_n u**n )

where R(u) (z^m f -> (z/u)**(m+1) f) and its inverse shift the charge.
Modes are indexed by the literal power of u extracted from K(u) v, so for
v = (m, f) the coefficient of u**j is

    charge m + eps,  body = sum_{r - k = j + eps*m + 1} A_k (C_r f)

with A_k the modes of the multiplication exponential and C_r the modes of
the derivation exponential.  C_r lowers degree by r, so the sum is finite
and K[j] v = 0 exactly when j + eps*m + 1 > deg f.

The derivation exponential is a translation (the translation identity):
exp(sum_n c_n d/dp_n u**n) sends p_n to p_n + c_n u**n, so

    exp(...) p_la = prod_i (p_{la_i} + c_{la_i} u**la_i),

and C_r p_la is a sum over the sub-multisets S of la of weight r: with
k_v of the m_v parts equal to v taken into S, the term is
prod_v binom(m_v, k_v) c_v**k_v times p_{la minus S}.  Each kernel keeps
that table once per la for the translation of a vector (`translate`).  It
memoises mode actions under the key (shift, la) with shift = j + eps*m + 1,
the only way j and m enter, and builds them from the identity one part
at a time: with v the largest part of la and la' the rest,
exp(...) p_la = (p_v + c_v u**v) exp(...) p_la'.

Kernel instances:

* fermion+ / fermion-   (a_n, c_n) = (1, -1) and (-1, +1): classical
  charged free fermions;
* twisted+ / twisted-   (1-t^n, -1) and (t^n-1, +1): the twisted fermions
  generating Hall-Littlewood data;
* deformed+ / deformed- (1-t^n, -1/(1-t^n)) and (t^n-1, 1/(1-t^n)): the
  images of the classical fermions under p_n -> (1-t^n) p_n, built from
  these tables of their own (the `conj+-` items of kernel-factorization
  check the conjugation against the classical kernels).

Half-integer mode labels used in the vertex-algebra literature map to
this indexing by K_{k+1/2} <-> K[-+k]; the normal ordering below splits
the fermion+ modes at a <= -1 (applied outermost) versus a >= 0 (applied
innermost, with a fermionic sign), which is the unique split for which
every mode sum terminates on each vector.

Denominators.  The kernels' a_n lie in Z[t]/b and their c_v in
Z[t]/(b (1-t^v)**k); data of any other form raises ValueError when it is
first read.  So every denominator here is b * prod_v (1-t^v)**e_v, b a
positive integer and e an exponent vector (empty for b alone), and la's
table shares one, D_la = prod_v b_v**m_v (1-t^v)**(k_v m_v): its exponent
vector is m(la) for the deformed kernels and empty for the others.  A sum
of pieces over several such denominators is written over the lcm of the
b's times prod_v (1-t^v)**(max e_v), each piece's numerator multiplied
by its exact quotient, so denominators are never multiplied together.

Packing.  A mode body K[j] p_la has weight n = |la| - shift and is cached
as a `Column`: one integer whose slot i*s + k holds the t**k digit of
the numerator of the i-th partition of n (`partitions_of` order) as a
balanced base-2**w digit, with the denominator (b, e), a bound on the
digits' bit length and a bound d < s on their t-degree (Kronecker
substitution on two levels: t = 2**w inside a slot, X = 2**(w*s)
between partitions).  On a miss the body is one `_combine` of two cached
columns on la' (`mode_on_basis`): p_v times the body at the same shift,
its slots moved through a per-weight index map of p_nu p_mu, and c_v
times the body at shift - v; on p_() it is A_(-shift), kept per kernel
as a Column (m A_m = sum_n a_n p_n A_(m-n), one digit sum, `_digit_sum`).
No SymFunc is built.  A body is not content-normalised (its digits stay
within the bounds it carries), and a deformed body's (1-t^v) exponents
are at most m(la).  An operator applied to a vector sums c_i(t) * enc_i
per weight over the common denominator (`combine`), one multiply per
input term, and unpacks the sum to a SymFunc, one gcd per coefficient
and every digit over a t-denominator checked against the limb bound of
`ratfun`.  `composition` builds K1[j1] K2[j2] p_la the same way at
charge 0, for any two kernels (an inner column's (1-t^v) exponents go on
the outer columns); on z^m p_la that is the product at
(j1 + eps1 m, j2 + eps2 m).  The fermion and
bilinear sums read each from `diagonal`; the Heisenberg and Virasoro
modes of one (k, la) are built at every charge of a sweep from one such
pair (`_normal_ordered_pair`).  Each operator is defined once, as pieces
(c(t)/b times a column) on z^m p_la: the kernel modes, `alpha`,
`twisted_alpha` and `virasoro`.

Neither the width w nor the t-stride s is set by an option: both follow
from bounds on the digits and t-degrees carried with each column (never
re-read from the packed integer, which cannot show a carry; see
`_combine`), so no digit carries into its neighbour and no polynomial
into the next partition's slots.  Columns of one weight share a width,
a multiple of 32 bits, and those of positive t-degree a stride, a
multiple of 4; both only grow, and a column packed otherwise than an
operation needs is repacked once, in place.  `ratfun`'s balanced-digit
codec packs and reads every column (`_pack`, `_digits`), puts a single
polynomial c(t) at t = 2**w and reads it back (`_spread`, `_unspread`),
and sizes each width from a digit bound (`_width`); the packed fields of
its `RatFun` use the same format at their fixed width LIMB_BITS.  This module
chooses only the slot layout and the width and stride each weight
shares.

Vectors.  The identity is linear, so `translate` builds C_r f for a
whole f = sum_la c_la p_la by one digit sum (with A_0 = 1) from the
tables of f's support, over M = prod_v (1-t^v)**(max_la k_v m_v(la)),
and `mode_body` reads any mode sum_{r >= shift} A_(r-shift) C_r f from
those rows.  A coefficient with any other t-denominator (a tau read
from a file, or a body unpacked over (1-t^v) factors) is handled once
per operation: the lcm Q of those denominators is pulled out in front
(`ratfun.pull`), Q c is summed packed, and the result is divided by Q.

An identity side is a plain function on Fock vectors, composed from the
mode actions above; `check_mode_identity` compares two sides on every
basis vector z^m p_la of a window, for `verify`'s commutation suite and
the tests.  Every Fock-kernel suite of `verify` runs on packed columns
instead, with `_combine` as the zero test.
"""

from __future__ import annotations

from functools import cache
from itertools import zip_longest
from math import comb, gcd
from typing import Callable, Iterable

from .partitions import Partition, multiplicities, partitions_of, partitions_up_to, weight
from .ratfun import RF_ONE, Digits, RatFun, _digits, _pack, _spread, _unspread, _width
from .ratfun import pull, rf_inv_one_minus_t_pow, rf_one_minus_t_pow
from .symfunc import SymFunc, symfunc_to_json

RF_MINUS_ONE = RatFun.from_int(-1)


class FockVector:
    """z^charge * body, an element of one graded component of B."""

    __slots__ = ("charge", "body")

    def __init__(self, charge: int, body: SymFunc):
        self.charge = charge
        self.body = body

    @classmethod
    def vacuum(cls) -> "FockVector":
        return cls(0, SymFunc.one())

    @classmethod
    def zero(cls, charge: int = 0) -> "FockVector":
        return cls(charge, SymFunc.zero())

    def is_zero(self) -> bool:
        return self.body.is_zero()

    def scaled(self, c) -> "FockVector":
        return FockVector(self.charge, self.body.scaled(c))

    def __add__(self, other: "FockVector") -> "FockVector":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.charge != other.charge:
            raise ValueError(f"charge mismatch: {self.charge} vs {other.charge}")
        return FockVector(self.charge, self.body + other.body)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + other.scaled(RF_MINUS_ONE)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FockVector):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return self.charge == other.charge and self.body == other.body

    def __repr__(self) -> str:
        return f"FockVector(charge={self.charge}, body={self.body!r})"


def fock_to_json(v: FockVector) -> dict:
    return {"charge": v.charge, "body": symfunc_to_json(v.body)}


# ---------------------------------------------------------------------------
# Z[t]-valued bodies packed as integers

_STRIDE_STEP = 4  # a growing stride skips to a multiple of this, so columns are repacked less often

# the exponents e_v of a denominator b * prod_v (1-t^v)**e_v, by v = 1, 2, ...,
# with no trailing zero (empty for b alone)
Exponents = tuple[int, ...]


class _Grade:
    """The partitions of one weight n, whose order numbers the slots of
    every column of weight n (slot i*stride + k for the t**k digit of the
    i-th partition), and the digit width and t-stride those columns share;
    the digits themselves are written and read by `ratfun`'s codec."""

    __slots__ = ("weight", "parts", "index", "width", "stride")

    def __init__(self, n: int):
        self.weight = n
        self.parts = tuple(partitions_of(n))
        self.index = {la: i for i, la in enumerate(self.parts)}
        self.width = _width(0)
        self.stride = 1

    @cache
    def times(self, mu: Partition) -> list[int]:
        """For the i-th partition nu of this weight, the index of nu + mu
        (the partition of p_nu p_mu) in the grade of weight n + |mu|."""
        index = _grade(self.weight + weight(mu)).index
        return [index[tuple(sorted(nu + mu, reverse=True))] for nu in self.parts]

    def fit(self, bits: int, deg: int) -> tuple[int, int]:
        """The (width, stride) for digits below 2**bits and polynomials of
        t-degree deg: the shared width and, unless deg = 0 (stride 1, so Q
        columns never pay for the t-degrees of others), the shared stride,
        each first grown (never shrunk) to fit."""
        if bits >= self.width:
            self.width = _width(bits)
        if not deg:
            return self.width, 1
        if deg >= self.stride:
            self.stride = (deg // _STRIDE_STEP + 1) * _STRIDE_STEP
        return self.width, self.stride


_grade = cache(_Grade)


class Column:
    """A homogeneous body of weight n as one integer over a factored denominator.

    The body's value is sum_la c_la(t) p_la / (den * prod_v (1-t^v)**ex[v-1]),
    den > 0 and ex an exponent vector with no trailing zero (empty for a
    scalar denominator).  Slot i*stride + k of enc holds the t**k digit of
    c_la for the i-th partition la of n (in `partitions_of` order), as a
    balanced base-2**width digit; every digit is below 2**bits in absolute
    value, bits < width, and no c_la has t-degree above deg < stride.  A
    Q-valued body is the case deg = 0 and ex = ().  The digits are
    unpacked once, on first read; the `body` property is the SymFunc
    view, built on each read.
    """

    __slots__ = ("weight", "enc", "den", "ex", "bits", "deg", "width", "stride", "_digits")

    def __init__(
        self, weight: int, enc: int, den: int, ex: Exponents, bits: int, deg: int, width: int, stride: int
    ):
        self.weight = weight
        self.enc = enc
        self.den = den
        self.ex = ex
        self.bits = bits
        self.deg = deg
        self.width = width
        self.stride = stride
        self._digits: list[tuple[Partition, Digits]] | None = None

    @classmethod
    def zero(cls, n: int) -> "Column":
        return cls(n, 0, 1, (), 0, 0, 0, 1)

    @classmethod
    def from_digits(cls, n: int, digits: list[tuple[Partition, Digits]], den: int, ex: Exponents = ()) -> "Column":
        """sum c p_la / (den prod_v (1-t^v)**ex[v-1]) over (la, c), all |la| = n,
        den > 0, with the content of the digits and den divided out and
        packed at the shared width and stride."""
        digits = [(la, c) for la, c in digits if c]
        if not digits:
            return cls.zero(n)
        polys = [c for _, c in digits if type(c) is not int]
        flat = [c for _, c in digits if type(c) is int]
        for c in polys:
            flat += c
        g = gcd(den, *flat)
        top = max(max(flat), -min(flat))
        if g > 1:
            den //= g
            top //= g
            digits = [(la, c // g if type(c) is int else tuple(d // g for d in c)) for la, c in digits]
        bits = top.bit_length()
        deg = max(map(len, polys), default=1) - 1
        grade = _grade(n)
        width, stride = grade.fit(bits, deg)
        slots = []
        for la, c in digits:
            i = grade.index[la] * stride
            if type(c) is int:
                slots.append((i, c))
            else:
                slots += zip(range(i, i + len(c)), c)
        return cls(n, _pack(slots, width, len(grade.parts) * stride), den, ex, bits, deg, width, stride)

    def is_zero(self) -> bool:
        return self.enc == 0

    def digits(self) -> list[tuple[Partition, Digits]]:
        """The nonzero (la, c) of the column, c an int when it is a constant."""
        out = self._digits
        if out is not None:
            return out
        if not self.enc:
            return []
        parts, stride = _grade(self.weight).parts, self.stride
        ds = _digits(self.enc, self.width, len(parts) * stride)
        if stride == 1:
            out = [(la, d) for la, d in zip(parts, ds) if d]
        else:
            out = []
            for i, la in enumerate(parts):
                c = ds[i * stride : (i + 1) * stride]
                if any(c):
                    while not c[-1]:
                        c.pop()
                    out.append((la, c[0] if len(c) == 1 else tuple(c)))
        self._digits = out
        return out

    def repack(self, width: int, stride: int) -> None:
        """Re-encode at another width and stride, in place; the value is unchanged."""
        count, old = len(_grade(self.weight).parts), self.stride
        ds = _digits(self.enc, self.width, count * old)
        self.enc = _pack([(s // old * stride + s % old, d) for s, d in enumerate(ds) if d], width, count * stride)
        self.width = width
        self.stride = stride

    @property
    def body(self) -> SymFunc:
        """The SymFunc view, every coefficient reduced by one gcd per digit with
        den; over a t-denominator every digit, and those of prod_v (1-t^v)**ex,
        is checked against the limb bound of the packed RatFun fields."""
        den, ex = self.den, self.ex
        out = {
            la: RatFun.from_ratio(c, den) if type(c) is int and not ex else RatFun.from_poly(_poly(c), den)
            for la, c in self.digits()
        }
        if ex:
            over = RatFun.from_poly(_lift(ex, ()), 1)
            out = {la: c / over for la, c in out.items()}
        return SymFunc(out, _clean=True)

    def over(self, ex: Exponents) -> "Column":
        """This column divided by prod_v (1-t^v)**ex[v-1]: the same packed
        digits over the summed exponent vector."""
        out = Column(
            self.weight, self.enc, self.den, tuple(map(sum, zip_longest(self.ex, ex, fillvalue=0))),
            self.bits, self.deg, self.width, self.stride,
        )
        out._digits = self._digits
        return out


def _poly(c: Digits) -> tuple[int, ...]:
    """The t-digits of a coefficient, a constant as a 1-tuple."""
    return (c,) if type(c) is int else c


def _pmul(a: Digits, b: Digits) -> Digits:
    """The product of two coefficients, an int when it is a constant."""
    if type(a) is int and type(b) is int:
        return a * b
    a, b = _poly(a), _poly(b)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                out[k] += x * y
    return out[0] if len(out) == 1 else tuple(out)


def _top(a: Exponents, b: Exponents) -> Exponents:
    """The per-v maximum of two exponent vectors."""
    return tuple(map(max, zip_longest(a, b, fillvalue=0)))


@cache
def _lift(top: Exponents, ex: Exponents) -> tuple[int, ...]:
    """The digits of prod_v (1-t^v)**(top[v-1] - ex[v-1]), ex <= top: the exact
    quotient that rewrites a fraction over ex as one over top."""
    out = (1,)
    for v, k in enumerate(top, 1):
        factor = (1,) + (0,) * (v - 1) + (-1,)
        for _ in range(k - (ex[v - 1] if v <= len(ex) else 0)):
            out = _pmul(out, factor)
    return out


# c(t)/b times a column: one piece of a packed sum
Piece = tuple[Digits, int, Column]


def _combine(n: int, pieces: list[Piece]) -> Column:
    """sum (c(t)/b) col over pieces (c, b, col) of weight n, b > 0, c and col nonzero.

    The common denominator is D * prod_v (1-t^v)**top[v-1], D the lcm of
    the b * col.den and top the per-v maximum of the col.ex; each piece
    contributes c_s(t) * col with c_s = c * D / (b * col.den) times
    `_lift(top, col.ex)`, one multiply of col.enc by c_s at t = 2**width.
    A digit of the sum is below 2**bits with
    bits = max(bits(c_s) + col.bits + ceil(log2(min(deg c_s, col.deg) + 1)))
    + ceil(log2(pieces)), and its t-degree is at most
    deg = max(deg c_s + col.deg), so one shared width of at least bits + 1
    (a sign bit) and stride above deg hold it without a carry; columns
    packed otherwise are repacked to them once.
    """
    if not pieces:
        return Column.zero(n)
    if len(pieces) == 1 and pieces[0][0] == 1 and pieces[0][1] == 1:
        return pieces[0][2]
    den = 1
    top: Exponents = ()
    for _, b, col in pieces:
        t = b * col.den
        if den % t:
            den = den // gcd(den, t) * t
        if col.ex:
            top = _top(top, col.ex)
    scaled = []
    most = deg = 0
    for c, b, col in pieces:
        s = den // (b * col.den)
        if top and col.ex != top:
            c = _pmul(c, _lift(top, col.ex))
        if type(c) is int:
            c *= s
            need = abs(c).bit_length() + col.bits
            d = col.deg
        else:
            if s != 1:
                c = tuple(x * s for x in c)
            k = len(c) - 1
            need = max(max(c), -min(c)).bit_length() + col.bits + min(k, col.deg).bit_length()
            d = k + col.deg
        if need > most:
            most = need
        if d > deg:
            deg = d
        scaled.append((c, col))
    bits = most + (len(pieces) - 1).bit_length()
    width, stride = _grade(n).fit(bits, deg)
    enc = 0
    for c, col in scaled:
        if col.width != width or col.stride != stride:
            col.repack(width, stride)
        enc += (c if type(c) is int else _spread(c, width)) * col.enc
    return Column(n, enc, den, top, bits, deg, width, stride)


def _times_part(col: Column, v: int) -> Column:
    """p_v col: each slot moved to the partition that gains the part v
    (`_Grade.times`), packed at the shared width and stride of the target
    grade, so a `_combine` at that grade reads it without a repack; the
    digits, their bounds and the denominator are unchanged."""
    if not col.enc:
        return Column.zero(col.weight + v)
    source, grade = _grade(col.weight), _grade(col.weight + v)
    into, old = source.times((v,)), col.stride
    width, stride = grade.fit(col.bits, col.deg)
    ds = _digits(col.enc, col.width, len(source.parts) * old)
    enc = _pack([(into[s // old] * stride + s % old, d) for s, d in enumerate(ds) if d], width, len(grade.parts) * stride)
    return Column(grade.weight, enc, col.den, col.ex, col.bits, col.deg, width, stride)


def _unpack(cols: Iterable[Column], scale: RatFun | None) -> SymFunc:
    """The columns' bodies (of distinct weights) as one SymFunc, times scale."""
    terms: dict[Partition, RatFun] = {}
    for col in cols:
        if col.enc:
            terms.update(col.body.terms)
    body = SymFunc(terms, _clean=True)
    return body if scale is None else body.scaled(scale)


def combine(pairs: Iterable[tuple[RatFun, Column]]) -> SymFunc:
    """sum c * col over (c, col) pairs, summed packed per weight and unpacked once."""
    pieces, scale = pull([(c, col) for c, col in pairs if c and col.enc])
    groups: dict[int, list[Piece]] = {}
    for piece in pieces:
        groups.setdefault(piece[2].weight, []).append(piece)
    return _unpack([_combine(n, group) for n, group in groups.items()], scale)


def pieces(col: Column, c: Digits = 1, b: int = 1) -> list[Piece]:
    """(c/b) col as pieces, none for a zero column."""
    return [(c, b, col)] if col.enc else []


# A_k of a kernel as a Column, with its digits as (index in its grade, t-digits)
# pairs and, by width w, those digits spread at t = 2**w
MultColumn = tuple[Column, list[tuple[int, tuple[int, ...]]], dict[int, list[int]]]


def _multiplier(col: Column) -> MultColumn:
    """A column of weight >= 0 over a scalar denominator as the multiplier of
    a `_digit_sum` piece: its digits by index in its grade, none spread yet."""
    index = _grade(col.weight).index
    return col, [(index[la], _poly(c)) for la, c in col.digits()], {}


def _digit_sum(n: int, pieces: list[tuple[Digits, int, Exponents, MultColumn, Partition]]) -> Column:
    """sum c(t) * A * p_mu / (b prod_v (1-t^v)**ex[v-1]) over pieces (c, b, ex, A, mu)
    with |mu| + A.weight = n, b > 0 and A over a scalar denominator, as one Column.

    Over the common denominator, as in `_combine`, each piece adds c times
    A's digits into one integer entry per partition nu + mu of n that
    p_nu p_mu lands on (`_Grade.times`).  A Q-valued sum adds the digits
    themselves; a t-valued one adds c(2**w) * d(2**w) per slot d of A, at
    a width w above the sum of the pieces' bounds
    max|c| * 2**A.bits * min(len c, A.deg + 1) and a sign bit, so the
    digits read back carry-free.  The entries are packed once by
    `Column.from_digits`, which also divides out their content.
    """
    if not pieces:
        return Column.zero(n)
    parts = _grade(n).parts
    den = 1
    top: Exponents = ()
    for _, b, ex, (col, _, _), _ in pieces:
        t = b * col.den
        if den % t:
            den = den // gcd(den, t) * t
        if ex and ex != top:
            top = _top(top, ex)
    if top:
        pieces = [(c if ex == top else _pmul(c, _lift(top, ex)), b, ex, a, mu) for c, b, ex, a, mu in pieces]
    acc = [0] * len(parts)
    if all(type(c) is int and not a[0].deg for c, _, _, a, _ in pieces):
        for c, b, _, (col, slots, _), mu in pieces:
            c *= den // (b * col.den)
            into = _grade(col.weight).times(mu)
            for i, (d,) in slots:
                acc[into[i]] += c * d
        return Column.from_digits(n, [(la, v) for la, v in zip(parts, acc) if v], den, top)
    scaled = []
    total = 0
    for c, b, _, (col, slots, spreads), mu in pieces:
        c = _poly(c)
        f = den // (b * col.den)
        total += max(max(c), -min(c)) * f * min(len(c), col.deg + 1) << col.bits
        scaled.append((c, f, slots, spreads, _grade(col.weight).times(mu)))
    width = _width(total.bit_length())
    for c, f, slots, spreads, into in scaled:
        x = _spread(c, width) * f
        ys = spreads.get(width)
        if ys is None:
            ys = spreads[width] = [_spread(d, width) for _, d in slots]
        for (i, _), y in zip(slots, ys):
            acc[into[i]] += x * y
    return Column.from_digits(n, [(la, _unspread(v, width)) for la, v in zip(parts, acc) if v], den, top)


# {r: C_r f as one row per weight}, a row (n, den, ex, [(mu, c)]) holding
# sum c(t) p_mu / (den prod_v (1-t^v)**ex[v-1]), |mu| = n: a translation
# table, or the rows of Q f
Rows = dict[int, list[tuple[int, int, Exponents, list[tuple[Partition, Digits]]]]]
# the rows of Q f and 1/Q (None for Q = 1): the translation of a vector f
Translations = tuple[Rows, RatFun | None]


class VertexKernel:
    """One charge-shifting vertex operator in the uniform exponential form,
    a(n) in Z[t]/b and c(v) in Z[t]/(b (1-t^v)**k) (else ValueError)."""

    def __init__(self, name: str, eps: int, a: Callable[[int], RatFun], c: Callable[[int], RatFun]):
        if eps not in (+1, -1):
            raise ValueError("eps must be +1 or -1")
        self.name = name
        self.eps = eps
        self.a = a
        self.c = c
        # keyed by (shift, la)
        self._modes: dict[tuple[int, Partition], Column] = {}

    def __repr__(self) -> str:
        return f"VertexKernel({self.name})"

    @cache
    def _mult_column(self, m: int) -> MultColumn:
        """A_m as a Column: the coefficient of u**-m in exp(sum a_n p_n u**-n / n),
        by m A_m = sum_n a_n p_n A_(m-n) on digits."""
        if m == 0:
            return _multiplier(Column.from_digits(0, [((), 1)], 1))
        terms = []
        for n in range(1, m + 1):
            a = self.a(n).poly_parts()
            if a is None:
                raise ValueError(f"{self.name}: a_{n} is not a polynomial in t over an integer")
            terms.append((a[0], a[1] * m, (), self._mult_column(m - n), (n,)))
        return _multiplier(_digit_sum(m, terms))

    @cache
    def _c_parts(self, v: int) -> tuple[Digits, int, int]:
        """c_v as (c, b, k), b > 0, of value c(t) / (b (1-t^v)**k)."""
        out = self.c(v).poly_parts_over(v)
        if out is None:
            raise ValueError(f"{self.name}: c_{v} has a denominator other than b (1-t^{v})**k")
        return out

    @cache
    def _digit_table(self, la: Partition) -> Rows:
        """C_r p_la for every r, as {r: [row]} over the one denominator D_la.

        Taking j of the m parts equal to v contributes binom(m, j) c_v**j
        to the coefficient and v*j to r.  With c_v = c/(b (1-t^v)**k)
        every coefficient is written over D_la = prod_v b**m (1-t^v)**(k m),
        as c_v**j = c**j b**(m-j) (1-t^v)**(k (m-j)) / (b (1-t^v)**k)**m.
        """
        terms: list[tuple[int, Digits, Partition]] = [(0, 1, ())]
        den = 1
        ex = [0] * (la[0] if la else 0)
        for v, mult in multiplicities(la).items():
            c, b, k = self._c_parts(v)
            lead = (0,) * (v - 1)
            power = 1  # c**j
            out = []
            for j in range(mult + 1):
                f = _pmul(comb(mult, j) * b ** (mult - j), _pmul(power, _lift(lead + (k * (mult - j),), ())))
                out += [(r + v * j, _pmul(num, f), rest + (v,) * (mult - j)) for r, num, rest in terms]
                power = _pmul(power, c)
            terms = out
            den *= b**mult
            ex[v - 1] = k * mult
        while ex and not ex[-1]:
            ex.pop()
        rows: Rows = {}
        n = weight(la)
        for r, num, rest in terms:
            if r not in rows:
                rows[r] = [(n - r, den, tuple(ex), [])]
            rows[r][0][3].append((rest, num))
        return rows

    def translate(self, f: SymFunc) -> Translations:
        """C_r f = sum_la c_la C_r p_la for every r, as the rows of Q f and 1/Q.

        Each row is one digit sum (`_digit_sum` with A_0 = 1) of the tables
        of f's support, each table rescaled from its D_la by the exact
        quotient M / D_la, M = prod_v (1-t^v)**(max_la k_v m_v(la)): every
        row shares the exponent vector of M.
        """
        parts, scale = pull([(c, self._digit_table(la)) for la, c in f.terms.items()])
        top: Exponents = ()
        for _, _, rows in parts:
            top = _top(top, rows[0][0][2])
        one = self._mult_column(0)
        groups: dict[tuple[int, int], list[tuple[Digits, int, Exponents, MultColumn, Partition]]] = {}
        for c, b, rows in parts:
            c = _pmul(c, _lift(top, rows[0][0][2]))
            for r, row in rows.items():
                for n, den, _, entries in row:
                    groups.setdefault((r, n), []).extend((_pmul(c, d), b * den, top, one, mu) for mu, d in entries)
        out: Rows = {}
        for (r, n), pieces in groups.items():
            col = _digit_sum(n, pieces)
            if not col.is_zero():
                out.setdefault(r, []).append((n, col.den, col.ex, col.digits()))
        return out, scale

    def mode_body(self, shift: int, translations: Translations) -> SymFunc:
        """sum_{r >= shift} A_(r-shift) C_r f, from the translation of f: one
        digit sum per weight of the rows of C_r f."""
        rows, scale = translations
        groups: dict[int, list[tuple[Digits, int, Exponents, MultColumn, Partition]]] = {}
        for r, row in rows.items():
            if r >= shift:
                a = self._mult_column(r - shift)
                for n, den, ex, entries in row:
                    groups.setdefault(n + r - shift, []).extend((c, den, ex, a, mu) for mu, c in entries)
        return _unpack([_digit_sum(n, pieces) for n, pieces in groups.items()], scale)

    def mode_on_basis(self, j: int, m: int, la: Partition) -> Column:
        """K[j] z^m p_la = z^(m+eps) sum_r A_(r-shift) C_r p_la, shift = j + eps*m + 1.

        The body col_s(la) at shift s has weight |la| - s.  On a miss it is
        built from la = (v) + la' by the translation identity on the one
        part v, col_s(la) = p_v col_s(la') + c_v col_(s-v)(la'), both
        columns read from this method at charge 0, down to col_s(()) = A_(-s):
        one `_combine` of p_v col_s(la') (`_times_part`) and of
        col_(s-v)(la') over c_v's (1-t^v)**k.
        """
        shift = j + self.eps * m + 1
        key = (shift, la)
        out = self._modes.get(key)
        if out is None:
            n = weight(la) - shift
            if n < 0:
                out = Column.zero(n)
            elif not la:
                out = self._mult_column(-shift)[0]
            else:
                v, rest = la[0], la[1:]
                # both columns first, as building the second can widen the grade of p_v col
                col, low = self.mode_on_basis(shift - 1, 0, rest), self.mode_on_basis(shift - v - 1, 0, rest)
                c, b, k = self._c_parts(v)
                terms = pieces(_times_part(col, v)) + pieces(low.over((0,) * (v - 1) + (k,)) if k else low, c, b)
                out = _combine(n, terms)
            self._modes[key] = out
        return out


def mode_apply(kernel: VertexKernel, j: int, v: FockVector) -> FockVector:
    """The coefficient of u**j in K(u) v: the column K[j] z^m p_la of each
    basis vector of v, summed by `combine`."""
    m = v.charge
    return FockVector(m + kernel.eps, combine((c, kernel.mode_on_basis(j, m, la)) for la, c in v.body.terms.items()))


FERMION_PLUS = VertexKernel("fermion+", +1, lambda n: RF_ONE, lambda n: RF_MINUS_ONE)
FERMION_MINUS = VertexKernel("fermion-", -1, lambda n: RF_MINUS_ONE, lambda n: RF_ONE)
TWISTED_PLUS = VertexKernel("twisted+", +1, rf_one_minus_t_pow, lambda n: RF_MINUS_ONE)
TWISTED_MINUS = VertexKernel(
    "twisted-", -1, lambda n: -rf_one_minus_t_pow(n), lambda n: RF_ONE
)
DEFORMED_PLUS = VertexKernel(
    "deformed+", +1, rf_one_minus_t_pow, lambda n: -rf_inv_one_minus_t_pow(n)
)
DEFORMED_MINUS = VertexKernel(
    "deformed-", -1, lambda n: -rf_one_minus_t_pow(n), rf_inv_one_minus_t_pow
)

KERNELS = {
    k.name: k
    for k in (
        FERMION_PLUS,
        FERMION_MINUS,
        TWISTED_PLUS,
        TWISTED_MINUS,
        DEFORMED_PLUS,
        DEFORMED_MINUS,
    )
}


def corrupted_kernel(base: VertexKernel) -> VertexKernel:
    """A deliberately wrong copy of a kernel (negative-control test hook)."""
    def bad_a(n: int, _orig=base.a) -> RatFun:
        return _orig(n) + RF_ONE if n == 2 else _orig(n)

    return VertexKernel(base.name + "-corrupt", base.eps, bad_a, base.c)


# ---------------------------------------------------------------------------
# normal-ordered bilinears in the classical fermions


def composition(outer: VertexKernel, j1: int, inner: VertexKernel, j2: int, la: Partition) -> Column:
    """outer[j1] inner[j2] p_la as one packed Column: one piece per nonzero
    coefficient c_mu of the inner column, on the cached outer column of
    p_mu over the inner denominator (its (1-t^v) exponents added to the
    outer column's)."""
    col = inner.mode_on_basis(j2, 0, la)
    terms = []
    for mu, c in col.digits():
        out = outer.mode_on_basis(j1, inner.eps, mu)
        if out.enc:
            terms.append((c, col.den, out.over(col.ex) if col.ex else out))
    return _combine(weight(la) - j1 - j2 - 2 - outer.eps * inner.eps, terms)


def diagonal(k1: VertexKernel, k2: VertexKernel, d: int, la: Partition) -> tuple[Callable[[int], Column], ...]:
    """X(a) = k1[a] k2[d-a] p_la and Y(b) = k2[b] k1[d-b] p_la for any two
    kernels, each built on first use into a dict dropped with the pair; Y is
    X when k1 is k2."""

    def side(outer: VertexKernel, inner: VertexKernel) -> Callable[[int], Column]:
        built: dict[int, Column] = {}

        def read(a: int) -> Column:
            col = built.get(a)
            if col is None:
                col = built[a] = composition(outer, a, inner, d - a, la)
            return col

        return read

    X = side(k1, k2)
    return X, X if k1 is k2 else side(k2, k1)


# (k, charge, la) -> mode k of alpha (_heis_cache) or L^0 (_vir_cache) on z^charge p_la
_heis_cache: dict[tuple[int, int, Partition], Column] = {}
_vir_cache: dict[tuple[int, int, Partition], Column] = {}


def _normal_ordered_pair(k: int, la: Partition, charges: Iterable[int], kinds: Iterable[bool]) -> None:
    """Mode k of alpha (False in kinds) and of L^0 (True) on z^m p_la, into
    their caches, for every m in charges not cached yet.

    Mode k of the bilinear sums, over a + b = k - 1, w(a, b) times
    :fermion+[a] fermion-[b]:, with w = b for L^0 and w = 1 for alpha
    (beta-free, as L^beta_k = L^0_k - beta (k-1) alpha_k).  The normal
    ordering sends a <= -1 outermost and a >= 0 innermost with a minus
    sign.  At charge m the pair (a, b) is, with a' = a + m, a side of
    `diagonal(fermion+, fermion-, k-1, la)`:

        C+(a') = fermion+[a'] fermion-[k-1-a'] p_la = X(a')      (a' < m)
        C-(a') = fermion-[k-1-a'] fermion+[a'] p_la = Y(k-1-a')  (a' >= m)

    and  alpha_k z^m p_la = sum_{a'<m} C+(a') - sum_{a'>=m} C-(a'), L^0_k
    the same sum weighted by b = k-1-a'+m.  C+ vanishes below a' = k - |la|
    and C- from a' = |la| on (the mode vanishing bound), but neither
    vanishes past the other end, so at charge m the a' run over
    `_pair_ranges`, [k - |la|, m) for C+ and [m, |la|) for C-, which at
    |m| > |la| reach past [k - |la|, |la|).  Each composition in the union
    of those ranges is built once for all the charges and kinds and then
    dropped: the mode caches of the two fermion kernels already hold
    every column it reads, and a process-wide cache of compositions would
    hold one column per (k, a', la) on top of them.
    """
    deg = weight(la)
    X, Y = diagonal(FERMION_PLUS, FERMION_MINUS, k - 1, la)
    for m in set(charges):
        for weighted in set(kinds):
            cache = _vir_cache if weighted else _heis_cache
            if (k, m, la) in cache:
                continue
            pieces = []
            for sign, span in zip((1, -1), _pair_ranges(k, deg, m)):
                for a in span:
                    col = X(a) if sign > 0 else Y(k - 1 - a)
                    w = k - 1 - a + m if weighted else 1
                    if w and col.enc:
                        pieces.append((sign * w, 1, col))
            out = _combine(deg - k, pieces)
            cache[k, m, la] = Column.from_digits(out.weight, out.digits(), out.den)


def _pair_ranges(k: int, deg: int, m: int) -> tuple[range, range]:
    """The a' of the C+ and of the C- that mode k of a bilinear sums on z^m p_la,
    |la| = deg (`_normal_ordered_pair`): the normal-ordering split at a' = m.
    The C+ run out to the charge, and each C+(a') past |la| builds
    fermion-[k-1-a'] p_la at weight about |la| + a', so far charges cost
    steeply more."""
    return range(k - deg, m), range(m, deg)


def bilinear_column(k: int, m: int, la: Partition, weighted: bool, charges: Iterable[int] = ()) -> Column:
    """Mode k of L^0 (weighted) or alpha on z^m p_la, memoised per basis vector.

    A miss builds it at m and at every charge in charges (a sweep's) from
    one set of compositions (`_normal_ordered_pair`), and a miss on L^0
    builds alpha from the same compositions too."""
    cache = _vir_cache if weighted else _heis_cache
    col = cache.get((k, m, la))
    if col is None:
        _normal_ordered_pair(k, la, (m, *charges), (True, False) if weighted else (False,))
        col = cache[k, m, la]
    return col


def one_minus_t_pow_ex(k: int) -> Exponents:
    """The exponent vector of (1-t^k), k > 0."""
    return (0,) * (k - 1) + (1,)


def alpha(k: int, m: int, la: Partition, charges: Iterable[int] = ()) -> list[Piece]:
    """alpha_k on z^m p_la as pieces, with alpha_{-n} = p_n, alpha_n = n d/dp_n
    (n > 0) and alpha_0 = charge: the coefficient of u**(k-1) of the
    normal-ordered product :fermion+(u) fermion-(u): (`bilinear_column`, whose
    miss builds it at every charge in charges as well)."""
    return pieces(bilinear_column(k, m, la, False, charges))


def twisted_alpha(k: int, m: int, la: Partition, charges: Iterable[int] = ()) -> list[Piece]:
    """h_k on z^m p_la as pieces: alpha_k for k <= 0 and alpha_k/(1 - t**k),
    alpha's column over (1-t^k), for k > 0."""
    col = bilinear_column(k, m, la, False, charges)
    return pieces(col.over(one_minus_t_pow_ex(k)) if k > 0 else col)


def virasoro(p: int, q: int, k: int, m: int, la: Partition, charges: Iterable[int] = ()) -> list[Piece]:
    """L^(beta)_k on z^m p_la as pieces, beta = p/q (q > 0), from the
    weighted fermion bilinear
    beta :dfermion+(u) fermion-(u): + (1-beta) :fermion+(u) dfermion-(u): .

    The derivative of the minus field is taken in the variable its modes
    are naturally indexed by, which is 1/u; together with the mode
    labelling fixed so the bracket closes with positive structure
    constants this makes the pair (a, b) with a + b = k - 1 enter with
    weight (1-beta)*b - beta*a = b - beta*(k-1), so L^(beta)_k =
    L^0_k - beta (k-1) alpha_k: two beta-free cached columns per basis
    vector, built by one miss, with alpha's skipped when beta (k-1) = 0;
    beta enters as the integers p and q, so no Fraction is built per piece.
    The resulting modes satisfy

        [L_j, L_k] = (j - k) L_{j+k} + c/12 (j**3 - j) delta_{j,-k}

    with central charge c = -12 beta**2 + 12 beta - 2, and L_0 acts on
    the charge-m vacuum by m(m-1)/2 + beta*m.
    """
    out = pieces(bilinear_column(k, m, la, True, charges))
    if p and k != 1:
        out += pieces(bilinear_column(k, m, la, False, charges), p * (1 - k), q)
    return out


# ---------------------------------------------------------------------------
# the generic identity checker

# one side of an identity: a linear operator given by its action on vectors
Operator = Callable[[FockVector], FockVector]


def witness_json(m: int, la: Partition, lhs: FockVector, rhs: FockVector) -> dict:
    """The JSON witness of an identity failing on z^m p_la: its two sides there."""
    return {"charge": m, "p": list(la), "lhs": fock_to_json(lhs), "rhs": fock_to_json(rhs)}


def check_mode_identity(
    lhs: Operator,
    rhs: Operator,
    max_degree: int,
    charges: Iterable[int],
) -> dict | None:
    """Evaluate both sides on every z^m p_la with m in charges, |la| <= max_degree.

    Returns None when they agree, else the witness (`witness_json`) of the
    first discrepancy in the fixed enumeration order (charges ascending,
    partitions by weight then revlex).
    """
    for m in sorted(charges):
        for la in partitions_up_to(max_degree):
            v = FockVector(m, SymFunc.monomial(la))
            left = lhs(v)
            right = rhs(v)
            if left != right:
                return witness_json(m, la, left, right)
    return None

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
that table once per la, and memoises mode actions under the key
(shift, la) with shift = j + eps*m + 1, the only way j and m enter.
The coefficients of one table share one denominator: with c_v = n_v/d_v
they are written over D_la = prod_v d_v**m_v, so every piece of a mode
body has the same denominator and the body's coefficients keep it (for
the deformed kernels D_la = prod_v (1-t^v)**m_v, of degree |la|; for the
others D_la = 1).

The identity is linear, so a whole vector f = sum_la c_la p_la is
translated at once: `translate` sums C_r f = sum_la c_la C_r p_la from
the tables of f's support, and `mode_body` reads any mode
sum_{r >= shift} A_(r-shift) C_r f from that, the same function that
builds K[j] p_la from p_la's table.  The rows of each la are rescaled by
the exact quotient M / D_la, M = prod_v d_v**(max_la m_v(la)), so when
f has polynomial coefficients all of C_r f shares the one denominator M.

Kernel instances:

* fermion+ / fermion-   (a_n, c_n) = (1, -1) and (-1, +1): classical
  charged free fermions;
* twisted+ / twisted-   (1-t^n, -1) and (t^n-1, +1): the twisted fermions
  generating Hall-Littlewood data;
* deformed+ / deformed- (1-t^n, -1/(1-t^n)) and (t^n-1, 1/(1-t^n)): the
  images of the classical fermions under p_n -> (1-t^n) p_n.

Half-integer mode labels used in the vertex-algebra literature map to
this indexing by K_{k+1/2} <-> K[-+k]; the normal ordering below splits
the fermion+ modes at a <= -1 (applied outermost) versus a >= 0 (applied
innermost, with a fermionic sign), which is the unique split for which
every mode sum terminates on each vector.

Bodies in Z[t]/den are packed.  A mode body K[j] p_la has weight
n = |la| - shift.  When every coefficient is a polynomial in t over a
scalar denominator (every body of fermion+-, twisted+-, their corrupted
copies, and the Heisenberg and Virasoro bilinears) it is cached as a
`Column`: one integer whose slot i*s + k holds the t**k coefficient of
the i-th partition of n (`partitions_of` order) as a balanced
base-2**w digit, over one positive scalar denominator, together with a
bound b on the digits' bit length and a bound d on their t-degree, d < s.
This is Kronecker substitution on two levels (t = 2**w inside a slot,
X = 2**(w*s) between partitions); a Q-valued body is the case d = 0.
An operator applied to a vector with coefficients in Z[t]/den groups the
input terms by weight and, per weight, sums c_i(t) * enc_i over the
common denominator: one multiply of enc_i by c_i's digits repacked at
t = 2**w per input term.  The sum is unpacked to a SymFunc, one gcd per
coefficient, only for the FockVector it returns; `mode_apply` on a basis
vector returns the cached column's view, built once and kept with the
column (`Column.kept_body`).  `composition` builds
K1[j1] K2[j2] z^m p_la the same way, from the digits of the inner column
and the cached outer columns, for the anticommutator and bilinear sums.

Neither the width w nor the t-stride s is set by an option.  A sum needs
digits below 2**bits with bits = max_i (bits(c_i) + b_i +
ceil(log2(min(deg c_i, d_i) + 1))) + ceil(log2(terms)), the first log
counting the products that meet in one slot of c_i(t) * col_i, and
w >= bits + 1 (a sign bit); its t-degree is at most max_i (deg c_i + d_i),
and s must exceed it.  So no digit ever carries into its neighbour, and no
polynomial runs into the next partition's slots.  Both bounds are carried
with each column, never re-read from the packed integer (which cannot show
a carry).  Columns of one weight share a width, a multiple of 32 bits,
and those of positive t-degree a stride, a multiple of 4 (a Q column has
stride 1); both only grow, and a column packed otherwise than an
operation needs is repacked once, in place.
Packing and unpacking go through one to_bytes/from_bytes each, with half
a digit added to every slot, so both are linear in the number of slots;
at 32- and 64-bit widths the slots are written and read as machine words.

A body missing from a mode cache is built straight into its Column when
the coefficients of la's translation table and the A_k lie in Z[t]/den
(fermion+-, twisted+-, their corrupted copies, and deformed+- on p_()).
Each kernel keeps A_k as a Column, built by m A_m = sum_n a_n p_n A_(m-n)
on digits, and la's table with each coefficient as c(t)/b.  The body
sum_r A_(r-shift) C_r p_la is accumulated as integer digits, one entry
per partition of its weight and power of t, over one common denominator
(p_nu p_mu is found through a per-weight index map), and packed once by
`Column.from_digits`; no SymFunc is built.  The SymFunc A_k
(`mult_coefficient`) are still what `mode_body` reads, for kp and for
the deformed+- bodies on a nonempty la, which stay SymFuncs: their
coefficients carry the denominators D_la, so `mode_body` sums them
through `linear_combination`.  A vector with a coefficient whose
denominator depends on t (or a deformed body) goes through
`linear_combination` on the SymFunc views of its columns.

An identity side is a plain function on Fock vectors, composed from the
mode actions above; `check_mode_identity` compares two sides on every
basis vector z^m p_la of a window.
"""

from __future__ import annotations

import struct
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import comb, gcd
from typing import Callable, Iterable

from .partitions import Partition, multiplicities, partitions_of, partitions_up_to, weight
from .ratfun import RF_ONE, RatFun, rf_inv_one_minus_t_pow, rf_one_minus_t_pow
from .symfunc import SymFunc, linear_combination, symfunc_to_json

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

_WIDTH_STEP = 32  # digit widths are multiples of this (whole bytes for to_bytes)
_STRIDE_STEP = 4  # a growing stride skips to a multiple of this, so columns are repacked less often
# memoryview formats that read one whole slot per item, by width in bits
_WORDS = {8 * struct.calcsize(f): f for f in ("Q", "I")} if sys.byteorder == "little" else {}

# a coefficient of a column or of a packed sum: an int for a constant, else
# the integer digits of a polynomial ascending in t
Digits = int | tuple[int, ...]


class _Grade:
    """The partitions of one weight n, whose order numbers the slots of
    every column of weight n, and the digit width and t-stride those
    columns share."""

    __slots__ = ("weight", "parts", "index", "width", "stride", "_offsets", "_times")

    def __init__(self, n: int):
        self.weight = n
        self.parts = tuple(partitions_of(n))
        self.index = {la: i for i, la in enumerate(self.parts)}
        self.width = _WIDTH_STEP
        self.stride = 1
        self._offsets: dict[tuple[int, int], tuple[bytes, int]] = {}
        self._times: dict[Partition, list[int]] = {}

    def times(self, mu: Partition) -> list[int]:
        """For the i-th partition nu of this weight, the index of nu + mu
        (the partition of p_nu p_mu) in the grade of weight n + |mu|."""
        out = self._times.get(mu)
        if out is None:
            index = _grade(self.weight + weight(mu)).index
            out = self._times[mu] = [index[tuple(sorted(nu + mu, reverse=True))] for nu in self.parts]
        return out

    def fit(self, bits: int, deg: int) -> tuple[int, int]:
        """The (width, stride) for digits below 2**bits and polynomials of
        t-degree deg: the shared width and, unless deg = 0 (stride 1, so Q
        columns never pay for the t-degrees of others), the shared stride,
        each first grown (never shrunk) to fit."""
        if bits >= self.width:
            self.width = (bits // _WIDTH_STEP + 1) * _WIDTH_STEP
        if not deg:
            return self.width, 1
        if deg >= self.stride:
            self.stride = (deg // _STRIDE_STEP + 1) * _STRIDE_STEP
        return self.width, self.stride

    def offset(self, width: int, stride: int) -> tuple[bytes, int]:
        """Half a digit, 2**(width-1), in every slot: as little-endian bytes and as an int."""
        out = self._offsets.get((width, stride))
        if out is None:
            pattern = (bytes(width // 8 - 1) + b"\x80") * (len(self.parts) * stride)
            out = self._offsets[width, stride] = (pattern, int.from_bytes(pattern, "little"))
        return out

    def pack(self, slots: Iterable[tuple[int, int]], width: int, stride: int) -> int:
        """sum d * 2**(width*s) over (s, d), every |d| < 2**(width-1): one from_bytes
        (slots written as machine words at 32- and 64-bit widths)."""
        size, half = width // 8, 1 << (width - 1)
        pattern, offset = self.offset(width, stride)
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

    def unpack(self, enc: int, width: int, stride: int) -> list[tuple[int, int]]:
        """The nonzero balanced digits (s, d) of enc: one to_bytes."""
        size, half = width // 8, 1 << (width - 1)
        pattern, offset = self.offset(width, stride)
        raw = (enc + offset).to_bytes(len(pattern), "little")
        word = _WORDS.get(width)
        if word is not None:
            return [(i, v - half) for i, v in enumerate(memoryview(raw).cast(word).tolist()) if v != half]
        empty = pattern[:size]
        out = []
        for i in range(len(self.parts) * stride):
            chunk = raw[i * size : (i + 1) * size]
            if chunk != empty:
                out.append((i, int.from_bytes(chunk, "little") - half))
        return out


_grades: dict[int, _Grade] = {}


def _grade(n: int) -> _Grade:
    g = _grades.get(n)
    if g is None:
        g = _grades[n] = _Grade(n)
    return g


class Column:
    """A homogeneous body of weight n with coefficients in Z[t]/den as one integer.

    Slot i*stride + k of enc holds the t**k coefficient of the i-th
    partition of n (in `partitions_of` order) times den, as a balanced
    base-2**width digit; every digit is below 2**bits in absolute value,
    bits < width, and no coefficient has t-degree above deg < stride.
    A Q-valued body is the case deg = 0.  The digits are unpacked once,
    on first read; the `body` property is the SymFunc view, built on each
    read, and `kept_body` the same view built once and kept with the
    column (for a cached column that is read whole again and again).
    """

    __slots__ = ("weight", "enc", "den", "bits", "deg", "width", "stride", "_digits", "_body")

    def __init__(self, weight: int, enc: int, den: int, bits: int, deg: int, width: int, stride: int):
        self.weight = weight
        self.enc = enc
        self.den = den
        self.bits = bits
        self.deg = deg
        self.width = width
        self.stride = stride
        self._digits: list[tuple[Partition, Digits]] | None = None
        self._body: SymFunc | None = None

    @classmethod
    def zero(cls, n: int) -> "Column":
        return cls(n, 0, 1, 0, 0, 0, 1)

    @classmethod
    def from_digits(cls, n: int, digits: list[tuple[Partition, Digits]], den: int) -> "Column":
        """sum (c/den) p_la over (la, c), all |la| = n, den > 0, with the content of
        the digits and den divided out and packed at the shared width and stride."""
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
        return cls(n, grade.pack(slots, width, stride), den, bits, deg, width, stride)

    @classmethod
    def from_body(cls, n: int, body: SymFunc) -> "Column | None":
        """The column of a body of weight n, or None if a coefficient is not in Z[t]/den."""
        polys = []
        den = 1
        for la, c in body.terms.items():
            p = c.poly_parts()
            if p is None:
                return None
            polys.append((la, *p))
            if den % p[1]:
                den = den // gcd(den, p[1]) * p[1]
        digits = []
        for la, c, b in polys:
            s = den // b
            digits.append((la, c * s if type(c) is int else tuple(d * s for d in c)))
        return cls.from_digits(n, digits, den)

    def is_zero(self) -> bool:
        return self.enc == 0

    def digits(self) -> list[tuple[Partition, Digits]]:
        """The nonzero (la, c) of the column, c an int when it is a constant."""
        out = self._digits
        if out is not None:
            return out
        if not self.enc:
            return []
        grade = _grade(self.weight)
        parts, stride = grade.parts, self.stride
        flat = grade.unpack(self.enc, self.width, stride)
        if stride == 1:
            out = [(parts[i], d) for i, d in flat]
        else:
            polys: dict[int, list[int]] = {}
            for s, d in flat:
                i, k = divmod(s, stride)
                poly = polys.get(i)
                if poly is None:
                    poly = polys[i] = []
                poly += [0] * (k - len(poly))
                poly.append(d)
            out = [(parts[i], c[0] if len(c) == 1 else tuple(c)) for i, c in polys.items()]
        self._digits = out
        return out

    def repack(self, width: int, stride: int) -> None:
        """Re-encode at another width and stride, in place; the value is unchanged."""
        grade = _grade(self.weight)
        flat = grade.unpack(self.enc, self.width, self.stride)
        if stride != self.stride:
            old = self.stride
            flat = [(s // old * stride + s % old, d) for s, d in flat]
        self.enc = grade.pack(flat, width, stride)
        self.width = width
        self.stride = stride

    @property
    def body(self) -> SymFunc:
        """The SymFunc view, every coefficient reduced by one gcd per digit."""
        den = self.den
        return SymFunc(
            {
                la: RatFun.from_ratio(c, den) if type(c) is int else RatFun.from_poly(c, den)
                for la, c in self.digits()
            },
            _clean=True,
        )

    def kept_body(self) -> SymFunc:
        """The `body` view, built on the first call and kept."""
        if self._body is None:
            self._body = self.body
        return self._body


def _spread(c: tuple[int, ...], width: int) -> int:
    """sum_k c[k] * 2**(width*k): the polynomial c(t) at t = 2**width."""
    out = 0
    for d in reversed(c):
        out = (out << width) + d
    return out


def _combine(n: int, pieces: list[tuple[Digits, int, Column]]) -> Column:
    """sum (c(t)/b) col over pieces (c, b, col) of weight n, b > 0, c and col nonzero.

    Over the common denominator D each piece contributes c_s(t) * col
    with c_s = c * D / (b * col.den), one multiply of col.enc by c_s at
    t = 2**width.  A digit of the sum is below 2**bits with
    bits = max(bits(c_s) + col.bits + ceil(log2(min(deg c, col.deg) + 1)))
    + ceil(log2(pieces)), and its t-degree is at most
    deg = max(deg c + col.deg), so one shared width of at least bits + 1
    (a sign bit) and stride above deg hold it without a carry; columns
    packed otherwise are repacked to them once.
    """
    if not pieces:
        return Column.zero(n)
    if len(pieces) == 1 and pieces[0][0] == 1 and pieces[0][1] == 1:
        return pieces[0][2]
    den = 1
    for _, b, col in pieces:
        t = b * col.den
        if den % t:
            den = den // gcd(den, t) * t
    scaled = []
    top = deg = 0
    for c, b, col in pieces:
        s = den // (b * col.den)
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
        if need > top:
            top = need
        if d > deg:
            deg = d
        scaled.append((c, col))
    bits = top + (len(pieces) - 1).bit_length()
    width, stride = _grade(n).fit(bits, deg)
    enc = 0
    for c, col in scaled:
        if col.width != width or col.stride != stride:
            col.repack(width, stride)
        enc += (c if type(c) is int else _spread(c, width)) * col.enc
    return Column(n, enc, den, bits, deg, width, stride)


def combine(pairs: Iterable[tuple[RatFun, Column]]) -> Column | None:
    """sum c * col over pairs whose nonzero columns share one weight, packed;
    None when a coefficient is not in Z[t]/den."""
    pieces = []
    n = None
    for c, col in pairs:
        if col.enc and c.ne:
            p = c.poly_parts()
            if p is None:
                return None
            if n is None:
                n = col.weight
            elif col.weight != n:
                raise ValueError(f"columns of weights {n} and {col.weight} in one sum")
            pieces.append((*p, col))
    return _combine(n or 0, pieces)


# A_k of a kernel as a Column, with its digits as (index in its grade, t-digits) pairs
MultColumn = tuple[Column, list[tuple[int, tuple[int, ...]]]]


def _poly(c: Digits) -> tuple[int, ...]:
    """The t-digits of a coefficient, a constant as a 1-tuple."""
    return (c,) if type(c) is int else c


def _digit_sum(n: int, pieces: list[tuple[Digits, int, MultColumn, Partition]]) -> Column:
    """sum (c(t)/b) * A * p_mu over pieces (c, b, A, mu) with |mu| + A.weight = n,
    b > 0, as one Column.

    Over the common denominator each piece adds c * A's digits, scaled,
    into one integer entry per t-degree of the partition nu + mu of n that
    p_nu p_mu lands on (`_Grade.times`), so no SymFunc is built; the
    entries are packed once by `Column.from_digits`, which also divides
    out their content.
    """
    if not pieces:
        return Column.zero(n)
    parts = _grade(n).parts
    den = 1
    stride = 0
    for c, b, (col, _), _ in pieces:
        t = b * col.den
        if den % t:
            den = den // gcd(den, t) * t
        stride = max(stride, (0 if type(c) is int else len(c) - 1) + col.deg)
    stride += 1
    acc = [0] * (len(parts) * stride)
    for c, b, (col, slots), mu in pieces:
        f = den // (b * col.den)
        into = _grade(col.weight).times(mu)
        if stride == 1:
            c *= f
            for i, (d,) in slots:
                acc[into[i]] += c * d
            continue
        for kc, x in enumerate(_poly(c)):
            if x:
                x *= f
                for i, d in slots:
                    for k, y in enumerate(d, into[i] * stride + kc):
                        acc[k] += x * y
    if stride == 1:
        return Column.from_digits(n, [(la, v) for la, v in zip(parts, acc) if v], den)
    digits = []
    for i, la in enumerate(parts):
        poly = acc[i * stride : (i + 1) * stride]
        while poly and not poly[-1]:
            poly.pop()
        if poly:
            digits.append((la, tuple(poly)))
    return Column.from_digits(n, digits, den)


def _apply(pairs: list[tuple[RatFun, "Column | FockVector"]]) -> SymFunc:
    """sum c * body over (c, body) pairs with nonzero bodies.

    When every body is a Column and every c in Z[t]/den, the pairs are
    summed packed, one multiply-add each, per weight; otherwise (a
    deformed body or a coefficient with a t-dependent denominator) they
    go through linear_combination on the SymFunc views.
    """
    groups: dict[int, list[tuple[RatFun, Column]]] = {}
    for c, entry in pairs:
        if type(entry) is not Column:
            return linear_combination((c, e.body) for c, e in pairs)
        groups.setdefault(entry.weight, []).append((c, entry))
    terms: dict[Partition, RatFun] = {}
    for group in groups.values():
        col = combine(group)
        if col is None:
            return linear_combination((c, e.body) for c, e in pairs)
        terms.update(col.body.terms)
    return SymFunc(terms, _clean=True)


# {r: C_r f as [(coeff, mu)]}: a translation table, or the translation of a vector
Translations = dict[int, list[tuple[RatFun, Partition]]]


class VertexKernel:
    """One charge-shifting vertex operator in the uniform exponential form."""

    def __init__(self, name: str, eps: int, a: Callable[[int], RatFun], c: Callable[[int], RatFun]):
        if eps not in (+1, -1):
            raise ValueError("eps must be +1 or -1")
        self.name = name
        self.eps = eps
        self.a = a
        self.c = c
        self._mult: list[SymFunc] = [SymFunc.one()]
        # A_k as a Column (None when it does not pack), and the translation
        # tables with each coefficient as (c, b) of value c(t)/b
        self._mult_cols: list[MultColumn | None] = []
        self._tables: dict[Partition, Translations] = {}
        self._digit_tables: dict[Partition, dict[int, list[tuple[Digits, int, Partition]]] | None] = {}
        # keyed by (shift, la): a Column for a Z[t]-valued body, else a FockVector
        # that keeps the charge of its first request and is re-wrapped for others
        self._modes: dict[tuple[int, Partition], Column | FockVector] = {}

    def __repr__(self) -> str:
        return f"VertexKernel({self.name})"

    def mult_coefficient(self, k: int) -> SymFunc:
        """A_k: coefficient of u**-k in exp(sum a_n p_n u**-n / n)."""
        if k < 0:
            return SymFunc.zero()
        while len(self._mult) <= k:
            m = len(self._mult)
            acc = SymFunc.zero()
            for n in range(1, m + 1):
                acc = acc + self._mult[m - n].times_p(n).scaled(self.a(n))
            self._mult.append(acc.scaled(Fraction(1, m)).map_coeffs(lambda r: r.slim()))
        return self._mult[k]

    def _mult_column(self, k: int) -> MultColumn | None:
        """A_k as a Column, by m A_m = sum_n a_n p_n A_(m-n) on digits; None
        when some a_n with n <= k is not in Z[t]/den."""
        cols = self._mult_cols
        while len(cols) <= k:
            m = len(cols)
            if m == 0:
                col = Column.from_digits(0, [((), 1)], 1)
            else:
                pieces = []
                for n in range(1, m + 1):
                    a, low = self.a(n).poly_parts(), cols[m - n]
                    if a is None or low is None:
                        col = None
                        break
                    pieces.append((a[0], a[1] * m, low, (n,)))
                else:
                    col = _digit_sum(m, pieces)
            index = _grade(m).index
            cols.append(None if col is None else (col, [(index[la], _poly(c)) for la, c in col.digits()]))
        return cols[k]

    def _table_terms(self, la: Partition) -> tuple[list[tuple[int, int, int, Partition]], int, int]:
        """The terms (r, numerator enc, numerator scalar, la minus S) of C_r p_la,
        all over the one denominator (de, dd): see `translation_table`."""
        terms: list[tuple[int, int, int, Partition]] = [(0, 1, 1, ())]
        de = dd = 1
        for v, mult in multiplicities(la).items():
            c = self.c(v)
            factors = [
                (comb(mult, k) * c.ne**k * c.de ** (mult - k), c.nd**k * c.dd ** (mult - k))
                for k in range(mult + 1)
            ]
            terms = [
                (r + v * k, ne * fe, nd * fd, rest + (v,) * (mult - k))
                for k, (fe, fd) in enumerate(factors)
                for r, ne, nd, rest in terms
            ]
            de *= c.de**mult
            dd *= c.dd**mult
        return terms, de, dd

    def translation_table(self, la: Partition) -> Translations:
        """C_r p_la for every r, as {r: [(coeff, la minus S)]} over sub-multisets S of la.

        Taking k_v of the m_v parts equal to v contributes
        binom(m_v, k_v) c_v**k_v to the coefficient and v*k_v to r.  With
        c_v = n_v/d_v every coefficient is written over the one denominator
        D_la = prod_v d_v**m_v, as c_v**k_v = n_v**k_v d_v**(m_v-k_v) / d_v**m_v,
        on the packed and the scalar parts alike.
        """
        table = self._tables.get(la)
        if table is None:
            terms, de, dd = self._table_terms(la)
            table = self._tables[la] = {}
            for r, ne, nd, rest in terms:
                table.setdefault(r, []).append((RatFun._raw(ne, nd, de, dd).slim(), rest))
        return table

    def _digit_table(self, la: Partition) -> dict[int, list[tuple[Digits, int, Partition]]] | None:
        """The translation table of la as {r: [(c, b, mu)]}, coefficient c(t)/b,
        built from the same terms and kept instead of it on the packed path;
        None when a coefficient is not in Z[t]/den."""
        if la not in self._digit_tables:
            terms, de, dd = self._table_terms(la)
            rows: dict[int, list[tuple[Digits, int, Partition]]] | None = {}
            for r, ne, nd, rest in terms:
                p = RatFun._raw(ne, nd, de, dd).poly_parts()
                if p is None:
                    rows = None
                    break
                rows.setdefault(r, []).append((*p, rest))
            self._digit_tables[la] = rows
        return self._digit_tables[la]

    def translate(self, f: SymFunc) -> Translations:
        """C_r f = sum_la c_la C_r p_la for every r, as {r: [(coeff, mu)]}.

        The tables of f's support are written over their own D_la; each
        row is rescaled by the exact quotient M / D_la, with
        M = prod_v d_v**(max_la m_v(la)), so that when f has polynomial
        coefficients every piece shares the denominator M and the sum
        stays on linear_combination's same-denominator path.
        """
        support = {la: multiplicities(la) for la in f.terms}
        top: dict[int, int] = {}
        for mults in support.values():
            for v, mult in mults.items():
                if mult > top.get(v, 0):
                    top[v] = mult
        rows: dict[int, list[tuple[RatFun, SymFunc]]] = {}
        for la, mults in support.items():
            qe = qd = 1
            for v, mx in top.items():
                k = mx - mults.get(v, 0)
                if k:
                    c = self.c(v)
                    qe *= c.de**k
                    qd *= c.dd**k
            for r, terms in self.translation_table(la).items():
                row = {rest: RatFun._raw(e.ne * qe, e.nd * qd, e.de * qe, e.dd * qd) for e, rest in terms}
                rows.setdefault(r, []).append((f.terms[la], SymFunc(row, _clean=True)))
        out = {}
        for r, pairs in rows.items():
            total = linear_combination(pairs)
            if not total.is_zero():
                out[r] = [(c, mu) for mu, c in total.terms.items()]
        return out

    def mode_body(self, shift: int, translations: Translations) -> SymFunc:
        """sum_{r >= shift} A_(r-shift) C_r f, from {r: C_r f as [(coeff, mu)]}."""
        return linear_combination(
            (c, self.mult_coefficient(r - shift).times_monomial(mu))
            for r, terms in translations.items()
            if r >= shift
            for c, mu in terms
        )

    def _mode_column(self, shift: int, la: Partition) -> Column | None:
        """sum_{r >= shift} A_(r-shift) C_r p_la as one digit sum; None unless
        every coefficient of la's table and every A_k in reach is in Z[t]/den."""
        table = self._digit_table(la)
        if table is None:
            return None
        pieces = []
        for r, rows in table.items():
            if r >= shift:
                a = self._mult_column(r - shift)
                if a is None:
                    return None
                pieces += [(c, b, a, mu) for c, b, mu in rows]
        return _digit_sum(weight(la) - shift, pieces)

    def mode_on_basis(self, j: int, m: int, la: Partition) -> Column | FockVector:
        """K[j] z^m p_la = z^(m+eps) sum_r A_(r-shift) C_r p_la, shift = j + eps*m + 1.

        The body has weight |la| - shift.  On a miss it is built as a
        digit sum straight into a Column (`_mode_column`) when the
        coefficients of la's translation table and the A_k lie in Z[t]/den:
        fermion+-, twisted+-, their corrupted copies, and deformed+- on
        p_().  Otherwise (deformed+- on a nonempty la, whose table carries
        D_la) it is built by `mode_body`, and cached as a FockVector of
        charge m + eps, or as a Column when every coefficient of the
        sum turns out to be in Z[t]/den (the zero body).
        """
        shift = j + self.eps * m + 1
        key = (shift, la)
        out = self._modes.get(key)
        if out is None:
            out = self._mode_column(shift, la)
            if out is None:
                body = self.mode_body(shift, self.translation_table(la))
                out = Column.from_body(weight(la) - shift, body)
                if out is None:
                    out = FockVector(m + self.eps, body.map_coeffs(lambda c: c.slim()))
            self._modes[key] = out
        elif type(out) is FockVector and out.charge != m + self.eps:
            out = FockVector(m + self.eps, out.body)
        return out


def mode_apply(kernel: VertexKernel, j: int, v: FockVector) -> FockVector:
    """The coefficient of u**j in K(u) v."""
    charge = v.charge + kernel.eps
    pairs = []
    for la, c in v.body.terms.items():
        entry = kernel.mode_on_basis(j, v.charge, la)
        if not entry.is_zero():
            pairs.append((c, entry))
    if len(pairs) == 1:
        c, entry = pairs[0]
        one = c.ne == 1 and c.nd == 1 and c.de == 1 and c.dd == 1
        if type(entry) is FockVector:
            return entry if one else entry.scaled(c)
        if one:
            # a basis vector: the cached column's view, built once
            return FockVector(charge, entry.kept_body())
    return FockVector(charge, _apply(pairs))


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


def _composition_pieces(
    outer: VertexKernel, j1: int, inner: VertexKernel, j2: int, m: int, la: Partition, w: Fraction | int = 1
) -> list[tuple[Digits, int, Column]]:
    """The `_combine` pieces of w * outer[j1] inner[j2] z^m p_la, for kernels
    whose modes are Columns: one per nonzero coefficient c_mu of the inner
    column, on the cached outer column of p_mu."""
    col = inner.mode_on_basis(j2, m, la)
    num, den = w.numerator, w.denominator * col.den
    pieces = []
    for mu, c in col.digits():
        out = outer.mode_on_basis(j1, m + inner.eps, mu)
        if not out.is_zero():
            if num != 1:
                c = c * num if type(c) is int else tuple(d * num for d in c)
            pieces.append((c, den, out))
    return pieces


def composition(outer: VertexKernel, j1: int, inner: VertexKernel, j2: int, m: int, la: Partition) -> Column:
    """outer[j1] inner[j2] z^m p_la as one packed Column (fermion and twisted kernels)."""
    n = weight(la) - (j2 + inner.eps * m + 1) - (j1 + outer.eps * (m + inner.eps) + 1)
    return _combine(n, _composition_pieces(outer, j1, inner, j2, m, la))


def _normal_ordered_pair(
    pair_sum: int, m: int, la: Partition, weight_fn: Callable[[int, int], Fraction] | None
) -> Column:
    """sum over a+b = pair_sum of w(a,b) :fermion+[a] fermion-[b]: applied to z^m p_la,
    built as one packed weighted sum of compositions.

    The split sends a <= -1 outermost and a >= 0 innermost with a minus
    sign; both branches terminate by the mode vanishing bound.
    """
    deg = weight(la)
    pieces = []
    for a in chain(range(pair_sum - (deg + m - 1), 0), range(0, deg - m)):
        b = pair_sum - a
        w = Fraction(1) if weight_fn is None else weight_fn(a, b)
        if w == 0:
            continue
        if a < 0:
            pieces += _composition_pieces(FERMION_PLUS, a, FERMION_MINUS, b, m, la, w)
        else:
            pieces += _composition_pieces(FERMION_MINUS, b, FERMION_PLUS, a, m, la, -w)
    out = _combine(deg - pair_sum - 1, pieces)
    return Column.from_digits(out.weight, out.digits(), out.den)


# keyed by (*key, charge, la), holding the column of the bilinear on z^charge p_la
_heis_cache: dict[tuple[int, int, Partition], Column] = {}
_vir_cache: dict[tuple[Fraction, int, int, Partition], Column] = {}


def _bilinear_mode(cache: dict, key: tuple, k: int, v: FockVector, weight_fn) -> FockVector:
    """Mode k of a weighted fermion bilinear on v, memoised per basis vector
    under key + (charge, la)."""
    pairs = []
    for la, c in v.body.terms.items():
        full_key = (*key, v.charge, la)
        col = cache.get(full_key)
        if col is None:
            col = cache[full_key] = _normal_ordered_pair(k - 1, v.charge, la, weight_fn)
        if not col.is_zero():
            pairs.append((c, col))
    return FockVector(v.charge, _apply(pairs))


def heisenberg_mode(k: int, v: FockVector) -> FockVector:
    """alpha_k with alpha_{-n} = p_n, alpha_n = n d/dp_n (n > 0), alpha_0 = charge.

    Realised as the coefficient of u**(k-1) of the normal-ordered product
    :fermion+(u) fermion-(u): .
    """
    return _bilinear_mode(_heis_cache, (k,), k, v, None)


def twisted_heisenberg_mode(k: int, v: FockVector) -> FockVector:
    """h_k = alpha_k for k <= 0 and alpha_k/(1 - t**k) for k > 0."""
    out = heisenberg_mode(k, v)
    if k > 0 and not out.is_zero():
        out = out.scaled(rf_inv_one_minus_t_pow(k))
    return out


def virasoro_mode(beta: Fraction | int, k: int, v: FockVector) -> FockVector:
    """L^(beta)_k from the weighted fermion bilinear
    beta :dfermion+(u) fermion-(u): + (1-beta) :fermion+(u) dfermion-(u): .

    The derivative of the minus field is taken in the variable its modes
    are naturally indexed by, which is 1/u; together with the mode
    labelling fixed so the bracket closes with positive structure
    constants this makes the pair (a, b) with a + b = k - 1 enter with
    weight (1-beta)*b - beta*a.  The resulting modes satisfy

        [L_j, L_k] = (j - k) L_{j+k} + c/12 (j**3 - j) delta_{j,-k}

    with central charge c = -12 beta**2 + 12 beta - 2, and L_0 acts on
    the charge-m vacuum by m(m-1)/2 + beta*m.
    """
    beta = Fraction(beta)
    p, q = beta.numerator, beta.denominator

    def w(a: int, b: int) -> Fraction:
        return Fraction((q - p) * b - p * a, q)

    return _bilinear_mode(_vir_cache, (beta, k), k, v, w)


# ---------------------------------------------------------------------------
# the generic identity checker

# one side of an identity: a linear operator given by its action on vectors
Operator = Callable[[FockVector], FockVector]


@dataclass(frozen=True)
class Verdict:
    equal: bool
    charge: int | None = None
    partition: Partition | None = None
    lhs: FockVector | None = None
    rhs: FockVector | None = None

    def witness_json(self) -> dict | None:
        if self.equal:
            return None
        return {
            "charge": self.charge,
            "p": list(self.partition),
            "lhs": fock_to_json(self.lhs),
            "rhs": fock_to_json(self.rhs),
        }


def check_mode_identity(
    lhs: Operator,
    rhs: Operator,
    max_degree: int,
    charges: Iterable[int],
) -> Verdict:
    """Evaluate both sides on every z^m p_la with m in charges, |la| <= max_degree.

    Returns the first discrepancy in the fixed enumeration order (charges
    ascending, partitions by weight then revlex) or equality.
    """
    for m in sorted(charges):
        for la in partitions_up_to(max_degree):
            v = FockVector(m, SymFunc.monomial(la))
            left = lhs(v)
            right = rhs(v)
            if left != right:
                return Verdict(False, m, la, left, right)
    return Verdict(True)

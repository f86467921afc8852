"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a map from monomials to rational coefficients.  Monomials are
dense exponent tuples (one non-negative int per variable), coefficients are
``fractions.Fraction``.  Zero coefficients are never stored, so two
polynomials are equal exactly when their term maps are equal, and the zero
polynomial has an empty term map.

All arithmetic is exact; there is no floating-point path anywhere.  The
canonical text form (used in reports and golden files) lists terms in
descending graded reverse lexicographic order, e.g. ``3/2*x0^2*x2 - x1``.

Every product goes through one kernel, which does no Fraction arithmetic per
term.  Its operands are packed (pack): a polynomial becomes its integer
numerators over one denominator, and each monomial one int holding the
exponent e_i in bits [32i, 32i + 32), so a product of monomials is one int
addition.  The sum over the entries accumulates integers over the lcm of the
entries' denominators, and the result is decoded once: one Fraction per
surviving term, one tuple per monomial.  Monomials are encoded with signed
32-bit fields, so an exponent of 2^31 or more raises InternalError, and the
sum of two encoded monomials still fits the unsigned fields that the decoder
reads.  The Groebner engine packs its monomials with the same codec.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import cache, reduce
from math import gcd, lcm
from operator import or_
from typing import Iterable, Iterator, Mapping

Monomial = tuple[int, ...]
Coeff = Fraction
# (den, packed monomials, numerators): the polynomial sum numerator/den * x^monomial,
# no zero numerator, every exponent below 2^31; read-only.  Lists, not tuples:
# CPython keeps up to 2000 freed tuples of each length below 20 until a full
# collection, and a report's packed values are many short sequences
Packed = tuple[int, list[int], list[int]]

# bits of one packed exponent field
FIELD_BITS = 32
ONE: Packed = (1, [0], [1])  # the constant 1, in any number of variables
ZERO: Packed = (1, [], [])


class InternalError(Exception):
    """A broken internal invariant: a bug, never a verdict or a usage error.

    Defined here, at the base of the import graph, so that every module
    (groebner included) raises the one class; liealg re-exports it.
    """


@cache
def _codec(n: int) -> tuple[struct.Struct, struct.Struct, int]:
    """Signed fields to encode, unsigned ones to decode, and the byte width."""
    return struct.Struct(f"<{n}i"), struct.Struct(f"<{n}I"), FIELD_BITS // 8 * n


def _overflow(err: struct.error) -> InternalError:
    return InternalError(f"an exponent overflows the {FIELD_BITS}-bit packed fields ({err})")


def encode(mono: Monomial) -> int:
    """The packed int sum e_i * 2^(32i) of an exponent tuple, every e_i below 2^31."""
    try:
        return int.from_bytes(_codec(len(mono))[0].pack(*mono), "little")
    except struct.error as err:
        raise _overflow(err) from None


def decode(m: int, n: int) -> Monomial:
    """The n exponents of a packed monomial; each field may reach 2^32 - 1."""
    _, dec, width = _codec(n)
    return dec.unpack(m.to_bytes(width, "little"))


class Poly:
    """Immutable-by-convention sparse polynomial in ``arity`` variables."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Mapping[Monomial, Coeff] | None = None):
        self.arity = arity
        clean: dict[Monomial, Coeff] = {}
        if terms:
            for mono, coeff in terms.items():
                if len(mono) != arity:
                    raise ValueError(f"monomial {mono} has wrong length for arity {arity}")
                c = Fraction(coeff)
                if c != 0:
                    clean[mono] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "Poly":
        return cls(arity)

    @classmethod
    def constant(cls, arity: int, value) -> "Poly":
        return cls(arity, {(0,) * arity: Fraction(value)})

    @classmethod
    def variable(cls, arity: int, index: int) -> "Poly":
        if not 0 <= index < arity:
            raise IndexError(f"variable index {index} out of range for arity {arity}")
        exp = [0] * arity
        exp[index] = 1
        return cls(arity, {tuple(exp): Fraction(1)})

    @classmethod
    def linear_form(cls, coeffs: Iterable) -> "Poly":
        """Sum coeffs[k] * x_k."""
        coeffs = list(coeffs)
        arity = len(coeffs)
        terms = {}
        for k, c in enumerate(coeffs):
            c = Fraction(c)
            if c != 0:
                exp = [0] * arity
                exp[k] = 1
                terms[tuple(exp)] = c
        return cls(arity, terms)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Max total degree of a term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def sorted_terms(self) -> list[tuple[Monomial, Coeff]]:
        """Terms in descending grevlex order (x0 > x1 > ...), the canonical
        order: the larger degree first, then the smaller last exponents, that
        is ascending on (-degree, reversed exponents)."""
        return sorted(self.terms.items(), key=lambda t: (-sum(t[0]), t[0][::-1]))

    def __iter__(self) -> Iterator[tuple[Monomial, Coeff]]:
        return iter(self.terms.items())

    def __len__(self) -> int:
        return len(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    # -- arithmetic --------------------------------------------------------

    def _check_same_ring(self, other: "Poly") -> None:
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} != {other.arity}")

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.arity, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same_ring(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            s = out.get(mono, Fraction(0)) + coeff
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return _poly(self.arity, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _poly(self.arity, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.arity, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return _poly(self.arity, {} if c == 0 else {m: cc * c for m, cc in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same_ring(other)
        return dot((self,), (other,), self.arity)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = Poly.constant(self.arity, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus and evaluation -------------------------------------------

    def diff(self, var_index: int) -> "Poly":
        """Formal partial derivative with respect to variable var_index."""
        if not 0 <= var_index < self.arity:
            raise IndexError(f"variable index {var_index} out of range")
        out: dict[Monomial, Coeff] = {}
        for mono, coeff in self.terms.items():
            e = mono[var_index]
            if e == 0:
                continue
            m = list(mono)
            m[var_index] = e - 1
            out[tuple(m)] = coeff * e
        return Poly(self.arity, out)

    def gradient(self) -> list["Poly"]:
        return [self.diff(k) for k in range(self.arity)]

    def evaluate(self, point: Iterable) -> Coeff:
        """Exact evaluation at a rational point of length arity."""
        vals = [Fraction(v) for v in point]
        if len(vals) != self.arity:
            raise ValueError(f"point length {len(vals)} != arity {self.arity}")
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            term = coeff
            for e, v in zip(mono, vals):
                if e:
                    term *= v**e
            total += term
        return total

    def substitute(self, images: list["Poly"]) -> "Poly":
        """Compose: replace variable k by images[k] (exact).

        All images must share one target arity.  Constant and affine images
        are allowed, so this covers both linear changes of variables and
        affine chart substitutions.
        """
        if len(images) != self.arity:
            raise ValueError(f"need {self.arity} images, got {len(images)}")
        if not images:
            raise ValueError("cannot substitute in a 0-variable ring")
        target = images[0].arity
        for g in images:
            if g.arity != target:
                raise ValueError("images have mismatched arities")
        powers = [[pack(g)] for g in images]  # powers[k][e - 1] = images[k]^e, packed

        def img_pow(k: int, e: int) -> Packed:
            row = powers[k]
            while len(row) < e:
                row.append(packed_dot([row[-1]], [row[0]], target))
            return row[e - 1]

        # the result is one dot product: coefficients against the images of the monomials
        coeffs, monos = [], []
        for mono, coeff in self.terms.items():
            image = None
            for k, e in enumerate(mono):
                if e:
                    q = img_pow(k, e)
                    image = q if image is None else packed_dot([image], [q], target)
            coeffs.append(pack_constant(coeff))
            monos.append(ONE if image is None else image)
        den, out = _accumulate(coeffs, monos)
        return unpack((den, out, out.values()), target)

    def homogeneous_components(self) -> dict[int, "Poly"]:
        """Split into homogeneous parts: {degree: component}, no zero entries."""
        buckets: dict[int, dict[Monomial, Coeff]] = {}
        for mono, coeff in self.terms.items():
            buckets.setdefault(sum(mono), {})[mono] = coeff
        return {d: Poly(self.arity, t) for d, t in sorted(buckets.items())}

    # -- canonical text form -------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({self.arity}, {format_poly(self)!r})"


def _poly(arity: int, terms: dict[Monomial, Coeff]) -> Poly:
    """A Poly on a term map that is clean already: right arity, no zero coefficient."""
    p = Poly.__new__(Poly)
    p.arity = arity
    p.terms = terms
    return p


def pack(p: Poly) -> Packed:
    """p as integer numerators over the lcm of its denominators, monomials encoded."""
    terms = p.terms
    den = lcm(*(c.denominator for c in terms.values()))
    enc = _codec(p.arity)[0].pack
    frm = int.from_bytes
    try:
        monos = [frm(enc(*m), "little") for m in terms]
    except struct.error as err:
        raise _overflow(err) from None
    return den, monos, [c.numerator * (den // c.denominator) for c in terms.values()]


def pack_constant(c: Fraction) -> Packed:
    """The constant c, packed, in any number of variables."""
    return (c.denominator, [0], [c.numerator]) if c else ZERO


def pack_gradient(p: Poly) -> list[Packed]:
    """The partial derivatives of p, packed, without building them as Polys
    (p.gradient() builds a tuple per term and variable; a commutativity
    report and a shift family run faster and peak lower without them).  Over
    p's denominator, d/dx_k takes c * x^m to (c * m_k) * x^(m - e_k)."""
    den, monos, nums = pack(p)
    grad = [([], []) for _ in range(p.arity)]
    for mono, m, c in zip(p.terms, monos, nums):
        for k, e in enumerate(mono):
            if e:
                gm, gc = grad[k]
                gm.append(m - (1 << FIELD_BITS * k))
                gc.append(c * e)
    return [(den, gm, gc) for gm, gc in grad]


def unpack(q: tuple[int, Iterable[int], Iterable[int]], arity: int) -> Poly:
    """The Poly of a packed value; a zero numerator is dropped."""
    den, monos, nums = q
    _, dec, width = _codec(arity)
    fields = dec.unpack
    return _poly(arity, {fields(m.to_bytes(width, "little")): Fraction(c, den)
                         for m, c in zip(monos, nums) if c})


def _accumulate(fs: Iterable[Packed], gs: Iterable[Packed]) -> tuple[int, dict[int, int]]:
    """The one product loop: sum f * g over the paired entries, as integer
    numerators over the lcm of the entries' denominators.  Cancelled terms
    stay in the map with numerator 0."""
    entries = []
    den = 1
    for f, g in zip(fs, gs, strict=True):
        if f[1] and g[1]:
            entries.append((f, g))
            den = lcm(den, f[0] * g[0])
    out: dict[int, int] = {}
    get = out.get
    for (df, fm, fc), (dg, gm, gc) in entries:
        scale = den // (df * dg)
        for ma, ca in zip(fm, fc):
            a = ca * scale
            for mb, cb in zip(gm, gc):
                m = ma + mb
                c = get(m)
                out[m] = a * cb if c is None else c + a * cb
    return den, out


def dot(fs: Iterable[Poly], gs: Iterable[Poly], arity: int) -> Poly:
    """Exact sum of f * g over the paired entries of fs and gs.

    Every product of two polynomials is a dot product of length one.  The
    entries are packed here; a caller that reuses an operand packs it once
    and calls packed_dot.
    """
    den, out = _accumulate(map(pack, fs), map(pack, gs))
    return unpack((den, out, out.values()), arity)


def packed_dot(fs: Iterable[Packed], gs: Iterable[Packed], arity: int) -> Packed:
    """dot over packed operands, packed: the result is an operand again.

    Raises InternalError when an exponent of a product reaches 2^31.
    """
    den, out = _accumulate(fs, gs)
    if reduce(or_, out, 0) & guard_mask(arity):
        raise InternalError(f"an exponent of a product reaches 2^{FIELD_BITS - 1}")
    g = gcd(den, *out.values())
    return den // g, [m for m, c in out.items() if c], [c // g for c in out.values() if c]


@cache
def guard_mask(n: int) -> int:
    """The top bit of each of n packed fields (the Groebner engine's guard bits)."""
    return sum(1 << (FIELD_BITS * i + FIELD_BITS - 1) for i in range(n))


def format_poly(p: Poly) -> str:
    """Canonical text: grevlex-descending terms, e.g. ``3/2*x0^2*x2 - x1``."""
    if p.is_zero():
        return "0"
    pieces: list[str] = []
    for idx, (mono, coeff) in enumerate(p.sorted_terms()):
        factors = []
        for k, e in enumerate(mono):
            if e == 1:
                factors.append(f"x{k}")
            elif e > 1:
                factors.append(f"x{k}^{e}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        if idx == 0:
            pieces.append(("-" if coeff < 0 else "") + body)
        else:
            pieces.append((" - " if coeff < 0 else " + ") + body)
    return "".join(pieces)


def parse_poly(text: str, arity: int) -> Poly:
    """Inverse of format_poly for the canonical text form."""
    s = text.strip()
    if s == "0":
        return Poly.zero(arity)
    # normalize separators so we can split on whitespace
    s = s.replace(" - ", " -").replace(" + ", " +")
    terms: dict[Monomial, Fraction] = {}
    for chunk in s.split():
        sign = Fraction(1)
        if chunk.startswith("-"):
            sign = Fraction(-1)
            chunk = chunk[1:]
        elif chunk.startswith("+"):
            chunk = chunk[1:]
        coeff = Fraction(1)
        exps = [0] * arity
        for factor in chunk.split("*"):
            if factor.startswith("x"):
                if "^" in factor:
                    var, _, pow_s = factor.partition("^")
                    exps[int(var[1:])] += int(pow_s)
                else:
                    exps[int(factor[1:])] += 1
            else:
                coeff *= Fraction(factor)
        mono = tuple(exps)
        terms[mono] = terms.get(mono, Fraction(0)) + sign * coeff
    return Poly(arity, terms)

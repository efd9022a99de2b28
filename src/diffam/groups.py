"""Finite abelian groups presented as products of cyclic factors and
additive groups of finite fields: what reading, counting and printing a
group needs.  Field multiplication lives in ``diffam.algebra``.

The encoding: an element of GF(p^n) is stored as a plain integer in
[0, p^n).  The integer packs the coefficient list (c0, c1, ..., c_{n-1}) of
the residue polynomial c0 + c1*x + ... + c_{n-1}*x^(n-1) with c0 as the
*most* significant base-p digit:

    encode(c0, ..., c_{n-1}) = c0*p^(n-1) + c1*p^(n-2) + ... + c_{n-1}

so that integer comparison of encodings agrees with the canonical order used
throughout this package: lexicographic comparison of coefficient lists, low
degree coefficients first.  For a prime field (n = 1) the encoding is the
residue itself.  One consequence worth knowing: the multiplicative identity
of an extension field encodes as p^(n-1), not as 1; always use ``f.one``.

Ring and group elements are tuples holding one encoded integer per factor.
Tuples compare lexicographically factor by factor, which again realizes the
canonical order, so built-in sorting of element tuples sorts canonically and
``itertools.product`` over per-factor ranges enumerates canonically.  An
element's canonical index is its place in that order (its coordinates read
in the mixed radix of the factor sizes): orbit walks, isomorphisms, block
families and the count engines work on indices, and decode tuples only when
asked for.  No group of more than GROUP_ORDER_CAP elements can be built.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from math import lcm, prod
from operator import add, floordiv, itemgetter, mod, mul

GROUP_ORDER_CAP = 10**6

Element = tuple  # one encoded int per factor


class ExhaustiveCapError(ValueError):
    """An exhaustive computation would exceed GROUP_ORDER_CAP."""


def _is_int(value) -> bool:
    """An int that is not a bool: a bool (as JSON's true and false parse) is
    an int subclass but never a valid coordinate, count or order."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_cap(order: int) -> None:
    """Refuse exhaustive work on a group of more than GROUP_ORDER_CAP elements."""
    if order > GROUP_ORDER_CAP:
        raise ExhaustiveCapError(
            f"group order {order} exceeds the exhaustive-verification cap "
            f"{GROUP_ORDER_CAP}"
        )


def check_power_cap(base: int, exp: int) -> None:
    """check_cap(base**exp) that refuses a huge exponent before computing the
    power: for |base| >= 2 it exceeds the cap once exp passes the cap's bit
    length."""
    if abs(base) > 1 and exp > GROUP_ORDER_CAP.bit_length():
        raise ExhaustiveCapError(
            f"group order {base}^{exp} exceeds the exhaustive-verification cap "
            f"{GROUP_ORDER_CAP}"
        )
    if exp > 0:
        check_cap(base**exp)


# ---------------------------------------------------------------------------
# elementary number theory (trial division is plenty for the sizes we handle)
# ---------------------------------------------------------------------------


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization ``{p: multiplicity}`` by trial division."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    for p in itertools.chain((2,), itertools.count(3, 2)):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out

def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, a) with n = p^a, or None if n is not a prime power."""
    if n < 2:
        return None
    fac = factorize(n)
    if len(fac) != 1:
        return None
    return next(iter(fac.items()))


# ---------------------------------------------------------------------------
# polynomial arithmetic over GF(p) — internal helpers for field construction
# (coefficient lists, low degree first, trimmed of trailing zeros)
# ---------------------------------------------------------------------------


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a: Sequence[int], b: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    n = len(mod) - 1  # mod is monic of degree n
    for i in range(len(res) - 1, n - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for j in range(n):
                res[i - n + j] = (res[i - n + j] - c * mod[j]) % p
    return _poly_trim(res)


def _poly_powmod(a: Sequence[int], e: int, mod: Sequence[int], p: int) -> list[int]:
    result = [1]
    base = list(a)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        e >>= 1
        if e:
            base = _poly_mulmod(base, base, mod, p)
    return result


def _poly_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        inv_lead = pow(b[-1], -1, p)
        monic = [c * inv_lead % p for c in b]
        r = list(a)  # reduce a mod monic, top coefficient down
        while len(r) >= len(monic):
            c = r[-1]
            if c:
                shift = len(r) - len(monic)
                for j, mj in enumerate(monic):
                    r[shift + j] = (r[shift + j] - c * mj) % p
            r.pop()
        a, b = monic, _poly_trim(r)
    return a


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Monic polynomial irreducibility over GF(p) via Frobenius iteration:
    f of degree n is irreducible iff x^(p^n) = x mod f and, for every prime
    l dividing n, gcd(x^(p^(n/l)) - x, f) is constant."""
    n = len(poly) - 1
    if n < 1 or poly[-1] != 1:
        return False
    if n == 1:
        return True
    if poly[0] == 0:  # divisible by x
        return False
    x = [0, 1]
    frob: list[list[int]] = [x]  # frob[k] = x^(p^k) mod poly
    t = x
    for _ in range(n):
        t = _poly_powmod(t, p, poly, p)
        frob.append(t)
    if frob[n] != x:
        return False
    for ell in factorize(n):
        diff = [c for c in frob[n // ell]]
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd(diff, poly, p)
        if len(g) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# the additive group of a finite field
# ---------------------------------------------------------------------------


class AdditiveField:
    """The additive group of GF(p^n) with a fixed monic irreducible modulus
    polynomial, elements encoded as ints (see the module docstring).  A
    design file's field factor is one; ``algebra.FieldDescriptor`` adds
    multiplication, and fields of the same p, n and modulus are equal."""

    def __init__(self, p: int, n: int, modulus: Sequence[int] | None):
        if not is_prime(p):
            raise ValueError(f"field characteristic {p} is not prime")
        if n < 1:
            raise ValueError(f"extension degree must be positive, got {n}")
        self.p, self.n, self.q = p, n, p**n
        if modulus is None:
            modulus = self._least_modulus()
        else:
            for c in modulus:
                if not 0 <= c < p:
                    raise ValueError(f"modulus coefficient {c} out of range for GF({p})")
            if len(modulus) != n + 1 or modulus[-1] != 1:
                raise ValueError(
                    f"modulus must be monic of degree {n}, got {list(modulus)}"
                )
            if n > 1 and not _is_irreducible(list(modulus), p):
                raise ValueError(f"modulus {list(modulus)} is reducible over GF({p})")
        self.modulus: tuple[int, ...] = tuple(modulus)
        self.zero = 0
        self.one = p ** (n - 1)  # encodes (1, 0, ..., 0)
        if n == 1:
            # fast path: elements are residues
            self.add = lambda a, b: (a + b) % p  # type: ignore[assignment]
            self.sub = lambda a, b: (a - b) % p  # type: ignore[assignment]
            self.neg = lambda a: -a % p  # type: ignore[assignment]

    def _least_modulus(self) -> tuple[int, ...]:  # FieldDescriptor finds one
        raise ValueError(f"GF({self.q}) needs a modulus")

    # -- encoding ----------------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Decode to the coefficient list (c0, ..., c_{n-1}), low degree first."""
        out = []
        for _ in range(self.n):
            a, c = divmod(a, self.p)
            out.append(c)
        return tuple(reversed(out))

    def element(self, coeffs: Sequence[int]) -> int:
        """Encode a coefficient list (low degree first) after range-checking."""
        if len(coeffs) != self.n:
            raise ValueError(
                f"expected {self.n} coefficients for GF({self.q}), got {len(coeffs)}"
            )
        e = 0
        for c in coeffs:
            if not 0 <= c < self.p:
                raise ValueError(f"coefficient {c} out of range for GF({self.p}^{self.n})")
            e = e * self.p + c
        return e

    def elements(self) -> range:
        return range(self.q)

    # -- arithmetic ---------------------------------------------------------
    # (n == 1 instances override add/sub/neg with closures in __init__)

    def add(self, a: int, b: int) -> int:
        da, db, p = self.coeffs(a), self.coeffs(b), self.p
        return self.element(tuple((x + y) % p for x, y in zip(da, db)))

    def sub(self, a: int, b: int) -> int:
        da, db, p = self.coeffs(a), self.coeffs(b), self.p
        return self.element(tuple((x - y) % p for x, y in zip(da, db)))

    def neg(self, a: int) -> int:
        return self.element(tuple(-c % self.p for c in self.coeffs(a)))

    def scalar(self, c: int, a: int) -> int:
        """Integer scalar action c*a on the additive group."""
        c %= self.p
        if self.n == 1:
            return c * a % self.p
        return self.element(tuple(c * x % self.p for x in self.coeffs(a)))

    # -- identity -----------------------------------------------------------

    def _key(self) -> tuple:
        return (self.p, self.n, self.modulus)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AdditiveField) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"GF({self.q})"


# ---------------------------------------------------------------------------
# finite abelian groups as products of cyclic and field-additive factors
# ---------------------------------------------------------------------------


class GroupDescriptor:
    """Finite abelian group of at most GROUP_ORDER_CAP elements: a product of
    Z_n factors and additive groups of finite fields.  Elements are tuples of
    encoded ints, one per factor."""

    def __init__(self, factors: Sequence):
        if not factors:
            raise ValueError("a group needs at least one factor")
        digits: list[tuple[int, int, int]] = []
        sizes = []
        for i, fac in enumerate(factors):
            if isinstance(fac, AdditiveField):
                digits.extend((i, fac.p ** (fac.n - 1 - j), fac.p) for j in range(fac.n))
                sizes.append(fac.q)
            elif isinstance(fac, int):
                if fac < 1:
                    raise ValueError(f"cyclic order must be positive, got {fac}")
                digits.append((i, 1, fac))
                sizes.append(fac)
            else:
                raise ValueError(f"unsupported group factor {fac!r}")
        self.factors = tuple(factors)
        self.factor_sizes = tuple(sizes)
        self.order = prod(sizes)
        check_cap(self.order)
        self._digits = tuple(digits)
        self.zero: Element = (0,) * len(self.factors)

    def elements(self) -> Iterator[Element]:
        """All group elements in canonical order."""
        return itertools.product(*(range(s) for s in self.factor_sizes))

    def nonzero_elements(self) -> Iterator[Element]:
        zero = self.zero
        return (x for x in self.elements() if x != zero)

    # reference arithmetic on element tuples; the library computes on indices
    def add(self, x: Element, y: Element) -> Element:
        return tuple(
            f.add(a, b) if isinstance(f, AdditiveField) else (a + b) % f
            for f, a, b in zip(self.factors, x, y)
        )

    def sub(self, x: Element, y: Element) -> Element:
        return tuple(
            f.sub(a, b) if isinstance(f, AdditiveField) else (a - b) % f
            for f, a, b in zip(self.factors, x, y)
        )

    def neg(self, x: Element) -> Element:
        return self.sub(self.zero, x)

    def scalar_mul(self, c: int, x: Element) -> Element:
        return tuple(
            f.scalar(c, a) if isinstance(f, AdditiveField) else c * a % f
            for f, a in zip(self.factors, x)
        )

    def digits(self) -> tuple[tuple[int, int, int], ...]:
        """The mixed-radix digits of an element, most significant first, as
        (factor index, weight, radix): digit i of x is x[i] // weight % radix.
        A Z_n factor is one digit (i, 1, n); a GF(p^n) factor is n digits
        (i, p^(n-1-j), p), j = 0..n-1, the digits its encoding already
        stores.  Subtraction is digitwise modulo the radices, and an
        element's canonical index is its value in this mixed radix."""
        return self._digits

    def digit_radices(self) -> tuple[int, ...]:
        """The radix of each of ``digits``."""
        return tuple(r for _, _, r in self._digits)

    def exponent(self) -> int:
        """The additive exponent: lcm of the digit radices."""
        return lcm(*self.digit_radices())

    def canonical_generators(self) -> list[Element]:
        """A generating set: one element per digit of radix > 1, that digit
        1 and every other 0 (a residue generator per cyclic factor, a basis
        monomial per field-factor dimension)."""
        zero = self.zero
        return [zero[:i] + (w,) + zero[i + 1 :] for i, w, r in self._digits if r > 1]

    def indices(self, xs: Sequence[Element]) -> list[int]:
        """The canonical index of each element: its place in ``elements()``,
        the coordinates read in the mixed radix of the factor sizes."""
        return self.column_indices([map(itemgetter(i), xs) for i in range(len(self.factors))])

    def column_indices(self, columns: Sequence[Iterable[int]], radices: Sequence[int] = ()) -> list[int]:
        """The canonical indices of elements given as coordinate columns, one
        per factor (the inverse of ``coordinates``), or as digit columns when
        ``radices`` are ``digit_radices()``, built through one chain of
        iterators; a lone column that is a list is returned as it is."""
        total = columns[0]
        for size, coords in zip((radices or self.factor_sizes)[1:], columns[1:]):
            total = map(add, map(mul, total, itertools.repeat(size)), coords)
        return total if isinstance(total, list) else list(total)

    def coordinates(self, indices: Iterable[int]) -> list[Iterator[int]]:
        """The coordinate columns, one iterator per factor, of the elements
        with the given canonical indices.  Each column is read straight off
        one list of the indices, so no quotient or column list is built."""
        flat = indices if isinstance(indices, list) else list(indices)
        cols, place = [], self.order
        for i, size in enumerate(self.factor_sizes):
            place //= size
            col = map(floordiv, flat, itertools.repeat(place)) if place > 1 else iter(flat)
            cols.append(map(mod, col, itertools.repeat(size)) if i else col)
        return cols

    def elements_at(self, indices: Iterable[int]) -> list[Element]:
        """The elements with the given canonical indices, in order."""
        return list(zip(*self.coordinates(indices)))

    def contains(self, x) -> bool:
        """Whether x is an element: a tuple of one int per factor, not a
        bool, in the range of that factor."""
        return (
            isinstance(x, tuple)
            and len(x) == len(self.factors)
            and all(_is_int(c) and 0 <= c < s for c, s in zip(x, self.factor_sizes))
        )

    def check_elements(self, xs: Sequence) -> bool:
        """True iff ``contains`` accepts every x in xs, checked a column at a
        time: tuple type and width over all of xs, then per factor the int
        type of the coordinate column and its min/max against the order."""
        if not all(map(isinstance, xs, itertools.repeat(tuple))):
            return False
        if any(map(len(self.factors).__ne__, map(len, xs))):
            return False
        for i, size in enumerate(self.factor_sizes):
            col = list(map(itemgetter(i), xs))
            if not all(map(isinstance, col, itertools.repeat(int))):
                return False
            if any(map(isinstance, col, itertools.repeat(bool))):
                return False
            if col and (min(col) < 0 or max(col) >= size):
                return False
        return True

    def validate_element(self, x) -> None:
        if not self.contains(x):
            raise ValueError(f"{x!r} is not an element of {self!r}")

    def _key(self) -> tuple:
        # the additive group of GF(p) is Z_p with identical element encoding
        # and identical operations, so the two factor spellings compare equal
        out = []
        for f in self.factors:
            if isinstance(f, AdditiveField):
                out.append(("Z", f.p) if f.n == 1 else f._key())
            else:
                out.append(("Z", f))
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupDescriptor) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        parts = [
            repr(f) if isinstance(f, AdditiveField) else f"Z{f}"
            for f in self.factors
        ]
        return " x ".join(parts)


def cyclic_group(n: int) -> GroupDescriptor:
    return GroupDescriptor((n,))


def product_group(*groups: GroupDescriptor) -> GroupDescriptor:
    """Direct product; element tuples concatenate coordinatewise."""
    factors: list = []
    for g in groups:
        factors.extend(g.factors)
    return GroupDescriptor(factors)

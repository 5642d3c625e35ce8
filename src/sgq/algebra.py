"""Free supercommutative rings Q(i)[x_1..x_p] (x) Lambda[t_1..t_q].

Elements are stored sparsely as a map

    (exponent vector over the even generators, odd mask)  ->  nonzero
    GaussianRational coefficient,

where bit i of the int mask stands for the odd generator t_{i+1}.  A stored
odd monomial is read in normal order (increasing indices) with the
reordering sign already absorbed into the coefficient, so structural
equality of the term maps is equality of ring elements.  Two odd monomials
whose masks share a bit multiply to zero; otherwise the product's mask is
their union and its Koszul sign is one popcount (see `sign_mask`).
Displays and documents list the odd part as an increasing index tuple.

All values are immutable; every operation returns a fresh element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import gcd
from operator import add
from typing import Dict, Mapping, Optional, Tuple

from .errors import NotInvertible, ParityViolation, RingMismatch, UnknownVariable
from .scalars import GaussianRational, from_triple

# (exponent vector, odd mask): bit i of the mask is the odd generator t_{i+1}
TermKey = Tuple[Tuple[int, ...], int]
_SCALAR_TYPES = (int, Fraction, GaussianRational)


def odd_indices(mask: int) -> Tuple[int, ...]:
    """The odd generator indices of a monomial mask, in increasing order."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def sign_mask(mask: int) -> int:
    """Bit p is set when an odd number of the bits of `mask` lie above p.

    A suffix XOR of mask >> 1 in O(log q) shifts.  Moving a right factor t_p
    past the left monomial `mask` into normal order flips the sign once per
    left factor above p, so the Koszul sign of mask * other is the parity of
    popcount(sign_mask(mask) & other).
    """
    acc = mask >> 1
    width = acc.bit_length()
    shift = 1
    while shift < width:
        acc ^= acc >> shift
        shift <<= 1
    return acc


def accumulate_product(dest: Dict[TermKey, GaussianRational],
                       left: Mapping[TermKey, GaussianRational],
                       right: Mapping[TermKey, GaussianRational]) -> None:
    """Add the term-map product left * right into dest, dropping zeros.

    Each term pair works on the coefficients' integer triples: the product
    and its Koszul sign, then the sum with the coefficient already held at
    its key, then one gcd and one new coefficient (none if the sum is zero).
    The right triples are read per pair: a list of them built per call costs
    more than it saves on the many one- and two-term products.
    """
    right_items = right.items()
    for (exp1, mask1), c1 in left.items():
        signs = sign_mask(mask1)
        a1, b1, d1 = c1.re_num, c1.im_num, c1.den
        for (exp2, mask2), c2 in right_items:
            if mask1 & mask2:
                continue
            a2, b2 = c2.re_num, c2.im_num
            if b1 or b2:
                a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
            else:
                a, b = a1 * a2, 0
            d = d1 * c2.den
            if (signs & mask2).bit_count() & 1:
                a, b = -a, -b
            key = (tuple(map(add, exp1, exp2)) if exp1 else exp2, mask1 | mask2)
            acc = dest.get(key)
            if acc is not None:
                d0 = acc.den
                if d0 == d:
                    a, b = a + acc.re_num, b + acc.im_num
                else:
                    a, b, d = a * d0 + acc.re_num * d, b * d0 + acc.im_num * d, d * d0
                if not (a or b):
                    del dest[key]
                    continue
            elif not (a or b):
                continue
            if d != 1:
                g = gcd(a, b, d)
                if g != 1:
                    a, b, d = a // g, b // g, d // g
            dest[key] = from_triple(a, b, d)


def is_unit_terms(terms: Mapping[TermKey, GaussianRational]) -> bool:
    """True when the body of a term map is a nonzero constant (the only units here)."""
    body = [exp for exp, odd in terms if not odd]
    return len(body) == 1 and not any(body[0])


def inverse_terms(terms: Mapping[TermKey, GaussianRational]) -> Dict[TermKey, GaussianRational]:
    """The term map of the inverse of a unit (see `is_unit_terms`), by the
    terminating geometric series.

    With c the constant body and s the nilpotent rest (s^(q+1) = 0), the
    inverse is sum_k c^-1 (-s/c)^k; each power is one `accumulate_product`
    and is added into the sum as its product with 1.  A constant inverts
    with no product.
    """
    if len(terms) == 1:
        ((key, c),) = terms.items()
        return {key: c.inverse()}
    body = next(key for key in terms if not key[1])
    c_inv = terms[body].inverse()
    # -s/c, nilpotent; scaling by the constant needs no term products
    step = {key: -c * c_inv for key, c in terms.items() if key[1]}
    one = {body: GaussianRational(1)}
    power = {body: c_inv}
    result = dict(power)
    while True:
        following: Dict[TermKey, GaussianRational] = {}
        accumulate_product(following, power, step)
        if not following:
            return result
        accumulate_product(result, following, one)
        power = following


@dataclass(frozen=True, slots=True, repr=False)
class SuperRing:
    """A free supercommutative ring, fixed by its ordered generator names.

    Any iterables of names are accepted and stored as tuples.
    """

    even_vars: Tuple[str, ...] = ()
    odd_vars: Tuple[str, ...] = ()
    _even_index: Dict[str, int] = field(init=False, compare=False)
    _odd_index: Dict[str, int] = field(init=False, compare=False)

    def __post_init__(self):
        even = tuple(self.even_vars)
        odd = tuple(self.odd_vars)
        names = even + odd
        if len(set(names)) != len(names):
            raise ValueError(f"generator names must be distinct: {names}")
        object.__setattr__(self, "even_vars", even)
        object.__setattr__(self, "odd_vars", odd)
        object.__setattr__(self, "_even_index", {v: k for k, v in enumerate(even)})
        object.__setattr__(self, "_odd_index", {v: k for k, v in enumerate(odd)})

    @property
    def n_even(self) -> int:
        return len(self.even_vars)

    @property
    def n_odd(self) -> int:
        return len(self.odd_vars)

    def __repr__(self):
        return f"SuperRing(even={list(self.even_vars)}, odd={list(self.odd_vars)})"

    # -- element constructors ------------------------------------------------

    def element(self, terms: Mapping) -> "SuperElement":
        """Build an element from raw term data; zero coefficients are dropped.

        The odd part of a key is either an int mask below 2**n_odd or a
        strictly increasing (normal-order) tuple of odd generator indices.
        """
        clean: Dict[TermKey, GaussianRational] = {}
        for (exp, odd), coeff in terms.items():
            exp = tuple(exp)
            if len(exp) != self.n_even or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp} for ring with {self.n_even} even generators")
            if isinstance(odd, int):
                if not 0 <= odd < 1 << self.n_odd:
                    raise ValueError(f"odd mask {odd} out of range for {self.n_odd} odd generators")
                mask = odd
            else:
                odd = tuple(odd)
                if any(odd[k] >= odd[k + 1] for k in range(len(odd) - 1)):
                    raise ValueError(f"odd index tuple {odd} is not strictly increasing")
                if odd and (odd[0] < 0 or odd[-1] >= self.n_odd):
                    raise ValueError(f"odd index tuple {odd} out of range for {self.n_odd} odd generators")
                mask = sum(1 << i for i in odd)
            coeff = GaussianRational.coerce(coeff)
            if coeff:
                clean[(exp, mask)] = coeff
        return SuperElement(self, clean)

    def zero(self) -> "SuperElement":
        return SuperElement(self, {})

    def scalar(self, value) -> "SuperElement":
        coeff = GaussianRational.coerce(value)
        if not coeff:
            return self.zero()
        return SuperElement(self, {((0,) * self.n_even, 0): coeff})

    def one(self) -> "SuperElement":
        return self.scalar(1)

    def imaginary_unit(self) -> "SuperElement":
        return self.scalar(GaussianRational(0, 1))

    def gen(self, name: str) -> "SuperElement":
        """The generator with the given name, as an element."""
        if name in self._even_index:
            exp = [0] * self.n_even
            exp[self._even_index[name]] = 1
            return SuperElement(self, {(tuple(exp), 0): GaussianRational(1)})
        if name in self._odd_index:
            return SuperElement(self, {((0,) * self.n_even, 1 << self._odd_index[name]): GaussianRational(1)})
        raise UnknownVariable(f"{name!r} is not a generator of {self!r}")

    def gens(self) -> Dict[str, "SuperElement"]:
        return {name: self.gen(name) for name in self.even_vars + self.odd_vars}

    def parity_of_var(self, name: str) -> int:
        if name in self._even_index:
            return 0
        if name in self._odd_index:
            return 1
        raise UnknownVariable(f"{name!r} is not a generator of {self!r}")


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class SuperElement:
    """An element of a SuperRing in canonical sparse form."""

    ring: SuperRing
    terms: Dict[TermKey, GaussianRational]

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {((0,) * self.ring.n_even, 0): GaussianRational(1)}

    def parity(self) -> Optional[int]:
        """0 or 1 for a homogeneous nonzero element, None for a mixed one.

        The zero element reports parity 0 by convention but also passes
        has_parity() for both parities.
        """
        parities = {odd.bit_count() & 1 for (_, odd) in self.terms}
        if len(parities) > 1:
            return None
        return parities.pop() if parities else 0

    def has_parity(self, parity: int) -> bool:
        return all(odd.bit_count() & 1 == parity for (_, odd) in self.terms)

    def is_even(self) -> bool:
        return self.has_parity(0)

    def is_odd(self) -> bool:
        return self.has_parity(1)

    def body(self) -> "SuperElement":
        """The image under setting every odd generator to zero."""
        return SuperElement(self.ring, {k: c for k, c in self.terms.items() if not k[1]})

    def soul(self) -> "SuperElement":
        return SuperElement(self.ring, {k: c for k, c in self.terms.items() if k[1]})

    def constant_value(self) -> Optional[GaussianRational]:
        """The scalar value if the element is a constant, else None."""
        if not self.terms:
            return GaussianRational(0)
        if len(self.terms) == 1:
            (exp, odd), coeff = next(iter(self.terms.items()))
            if not odd and all(e == 0 for e in exp):
                return coeff
        return None

    def is_unit(self) -> bool:
        """True when the body is a nonzero constant (the only units here)."""
        return is_unit_terms(self.terms)

    # -- ring operations -----------------------------------------------------

    def _check_ring(self, other: "SuperElement") -> None:
        if self.ring != other.ring:
            raise RingMismatch(f"operands live in different rings: {self.ring!r} vs {other.ring!r}")

    def __add__(self, other):
        if isinstance(other, _SCALAR_TYPES):
            other = self.ring.scalar(other)
        if not isinstance(other, SuperElement):
            return NotImplemented
        self._check_ring(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = terms.get(key)
            total = coeff if acc is None else acc + coeff
            if total:
                terms[key] = total
            elif acc is not None:
                del terms[key]
        return SuperElement(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return SuperElement(self.ring, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _SCALAR_TYPES):
            scale = GaussianRational.coerce(other)
            if not scale:
                return self.ring.zero()
            return SuperElement(self.ring, {k: c * scale for k, c in self.terms.items()})
        if not isinstance(other, SuperElement):
            return NotImplemented
        self._check_ring(other)
        terms: Dict[TermKey, GaussianRational] = {}
        accumulate_product(terms, self.terms, other.terms)
        return SuperElement(self.ring, terms)

    __rmul__ = __mul__  # scalars are central

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return self.ring.one() if result is None else result

    def inv(self) -> "SuperElement":
        """Exact inverse via the terminating geometric series (`inverse_terms`).

        Requires the body to be a nonzero constant c; then a = c + s with s
        nilpotent (s^(q+1) = 0) and a^(-1) = c^(-1) * sum_k (-s/c)^k.
        """
        if not is_unit_terms(self.terms):
            raise NotInvertible(f"body is not a unit: {self.body()!r}")
        return SuperElement(self.ring, inverse_terms(self.terms))

    def derivative(self, var: str) -> "SuperElement":
        """Partial derivative; left derivative for odd generators."""
        parity = self.ring.parity_of_var(var)
        terms: Dict[TermKey, GaussianRational] = {}
        if parity == 0:
            idx = self.ring._even_index[var]
            for (exp, odd), coeff in self.terms.items():
                e = exp[idx]
                if e == 0:
                    continue
                new_exp = exp[:idx] + (e - 1,) + exp[idx + 1:]
                terms[(new_exp, odd)] = coeff * e
        else:
            bit = 1 << self.ring._odd_index[var]
            for (exp, odd), coeff in self.terms.items():
                if not odd & bit:
                    continue
                # the factor moves to the front past the factors below it
                below = (odd & (bit - 1)).bit_count()
                terms[(exp, odd ^ bit)] = -coeff if below & 1 else coeff
        return SuperElement(self.ring, terms)

    # -- comparison and display ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, _SCALAR_TYPES):
            other = self.ring.scalar(other)
        if not isinstance(other, SuperElement):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        value = self.constant_value()  # a constant equals its scalar, so it hashes like one
        return hash((self.ring, frozenset(self.terms.items()))) if value is None else hash(value)

    def sorted_terms(self):
        """The terms as ((exp, odd index tuple), coeff), in canonical order."""
        return sorted((((exp, odd_indices(odd)), coeff) for (exp, odd), coeff in self.terms.items()),
                      key=lambda item: item[0])

    def __repr__(self):
        if not self.terms:
            return "0"
        pieces = []
        for (exp, odd), coeff in self.sorted_terms():
            factors = []
            for name, e in zip(self.ring.even_vars, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            factors.extend(self.ring.odd_vars[i] for i in odd)
            coeff_str = str(coeff)
            if factors and coeff_str == "1":
                pieces.append("*".join(factors))
            elif factors and coeff_str == "-1":
                pieces.append("-" + "*".join(factors))
            else:
                pieces.append("*".join([coeff_str] + factors))
        return " + ".join(pieces).replace("+ -", "- ")


@dataclass(frozen=True, slots=True, eq=False)
class SuperHom:
    """A parity-preserving homomorphism given by images of the generators.

    Applying it to an element is substitution; this is exactly the data of a
    point of the source ring with values in the target.  The images are
    copied into a dict of the hom's own.
    """

    source: SuperRing
    target: SuperRing
    images: Dict[str, SuperElement]

    def __post_init__(self):
        source, target, images = self.source, self.target, self.images
        missing = set(source.even_vars + source.odd_vars) - set(images)
        if missing:
            raise UnknownVariable(f"no image given for generators {sorted(missing)}")
        extra = set(images) - set(source.even_vars + source.odd_vars)
        if extra:
            raise UnknownVariable(f"images given for non-generators {sorted(extra)}")
        for name, image in images.items():
            if image.ring != target:
                raise RingMismatch(f"image of {name!r} lives in {image.ring!r}, not the target ring")
            if not image.has_parity(source.parity_of_var(name)):
                kind = "even" if source.parity_of_var(name) == 0 else "odd"
                raise ParityViolation(f"image of {kind} variable {name!r} is not {kind}: {image!r}")
        object.__setattr__(self, "images", dict(images))

    def __call__(self, element: SuperElement) -> SuperElement:
        if element.ring != self.source:
            raise RingMismatch("element does not live in the source ring of this homomorphism")
        even_images = [self.images[name] for name in self.source.even_vars]
        odd_images = [self.images[name] for name in self.source.odd_vars]
        total = self.target.zero()
        for (exp, odd), coeff in element.terms.items():
            prod = self.target.scalar(coeff)
            # odd factors are applied in normal order, matching the stored sign
            factors = chain((image**e for image, e in zip(even_images, exp) if e),
                            (odd_images[idx] for idx in odd_indices(odd)))
            for factor in factors:
                prod = prod * factor
                if not prod.terms:
                    break
            total = total + prod
        return total

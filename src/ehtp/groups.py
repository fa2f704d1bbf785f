"""Finite groups with dense 0-based element indices, characters, and duals.

Groups are Cayley tables.  Abelian groups built as products of cyclic
factors additionally carry ``abelian_shape``, the tuple of factor orders;
only those groups support characters, dual groups, and Fourier analysis.
Element ``i`` of a shaped group has coordinates ``np.unravel_index(i, shape)``
(row-major), so the identity is always index 0.

Characters are stored as exact integer exponent tuples, never as floats or
closures: the character with exponents ``(k_1, ..., k_r)`` sends the element
with coordinates ``(s_1, ..., s_r)`` to ``exp(2*pi*i * sum_j k_j s_j / n_j)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from typing import Iterable, Sequence

import numpy as np

from .errors import NonAbelianError

__all__ = [
    "FiniteGroup",
    "Character",
    "SpectrumSet",
    "SubgroupRestriction",
    "make_cyclic_product",
    "from_cayley",
    "dual_group",
    "spectrum",
    "character_table",
    "difference_set",
    "subgroup_and_restriction",
]

MAX_ORDER = 4096


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group on elements ``0..order-1``.

    :param order: number of elements.
    :param cayley: ``(order, order)`` int array, ``cayley[a, b] = a*b``.
    :param identity: index of the identity element.
    :param inverse: ``(order,)`` int array of inverses.
    :param abelian_shape: cyclic factor orders when the group was built as
        ``Z_{n_1} x ... x Z_{n_r}``; ``None`` for plain Cayley-table groups.
    """

    order: int
    cayley: np.ndarray
    identity: int
    inverse: np.ndarray
    abelian_shape: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "cayley", np.ascontiguousarray(self.cayley, dtype=np.int64))
        object.__setattr__(self, "inverse", np.ascontiguousarray(self.inverse, dtype=np.int64))
        self.cayley.flags.writeable = False
        self.inverse.flags.writeable = False

    def mul(self, a: int, b: int) -> int:
        return int(self.cayley[a, b])

    @cached_property
    def generating_set(self) -> tuple[tuple[int, ...], int]:
        """Generators and a bound L with every element some ``g_k(...(g_1 e))``,
        k <= L: a breadth-first pass from e, multiplying on the left; a level that
        finds nothing new takes the least unreached element as a generator."""
        seen, frontier, gens, rows, levels = {self.identity}, [self.identity], [], [], 0
        while len(seen) < self.order:
            new = [y for y in dict.fromkeys(row[x] for x in frontier for row in rows) if y not in seen]
            if not new:
                gens.append(min(set(range(self.order)) - seen))
                rows.append(self.cayley[gens[-1]].tolist())
                new = [y for y in (rows[-1][x] for x in seen) if y not in seen]
            seen.update(new)
            frontier, levels = new, levels + 1
        return tuple(gens), levels

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def coords(self, element: int) -> tuple[int, ...]:
        """Coordinates of an element in the cyclic-product presentation."""
        shape = self._shape_or_raise()
        return tuple(int(c) for c in np.unravel_index(element, shape))

    def element_index(self, coords: Sequence[int]) -> int:
        shape = self._shape_or_raise()
        if len(coords) != len(shape):
            raise ValueError(f"expected {len(shape)} coordinates, got {len(coords)}")
        coords = tuple(int(c) % n for c, n in zip(coords, shape))
        return int(np.ravel_multi_index(coords, shape))

    def coordinate_table(self) -> np.ndarray:
        """``(r, order)`` array of coordinates for every element."""
        shape = self._shape_or_raise()
        return np.array(np.unravel_index(np.arange(self.order), shape))

    def is_same(self, other: "FiniteGroup") -> bool:
        return self is other or (
            self.order == other.order and np.array_equal(self.cayley, other.cayley)
        )

    def _shape_or_raise(self) -> tuple[int, ...]:
        if self.abelian_shape is None:
            raise NonAbelianError(
                "group has no cyclic-product presentation; characters and "
                "Fourier machinery need one (build it with make_cyclic_product)"
            )
        return self.abelian_shape

    def __repr__(self) -> str:
        if self.abelian_shape is not None:
            return f"FiniteGroup(Z{'xZ'.join(str(n) for n in self.abelian_shape)})"
        return f"FiniteGroup(order={self.order})"


def make_cyclic_product(shape: Sequence[int]) -> FiniteGroup:
    """Build ``Z_{n_1} x ... x Z_{n_r}`` for ``shape = [n_1, ..., n_r]``."""
    shape = tuple(int(n) for n in shape)
    if len(shape) == 0:
        raise ValueError("shape must contain at least one factor")
    if any(n < 1 for n in shape):
        raise ValueError(f"factor orders must be >= 1, got {shape}")
    order = prod(shape)
    if order > MAX_ORDER:
        raise ValueError(f"group order {order} exceeds the bound {MAX_ORDER}")

    coords = np.array(np.unravel_index(np.arange(order), shape))  # (r, order)
    # one factor at a time, in place, so no (r, |G|, |G|) array of coordinate sums is formed
    cayley = np.zeros((order, order), dtype=np.int64)
    part = np.empty_like(cayley)
    stride = order
    for c, n in zip(coords, shape):
        stride //= n
        np.add(c[:, None], c[None, :], out=part)
        part %= n
        part *= stride
        cayley += part
    inverse = np.ravel_multi_index(tuple((-coords) % np.array(shape)[:, None]), shape)
    return FiniteGroup(order, cayley, 0, inverse, abelian_shape=shape)


def from_cayley(table: Sequence[Sequence[int]]) -> FiniteGroup:
    """Build a group from an explicit Cayley table, validating the axioms.

    Each axiom is checked exactly at every order.  Associativity is Light's
    test (A. H. Clifford and G. B. Preston, *The Algebraic Theory of Semigroups*
    I, AMS 1961, sec. 1.2): ``(x g) y = x (g y)`` for all x, y and each g of
    ``generating_set``, one pass per g; the a that pass are closed under products.

    The result never carries ``abelian_shape``, even if the table happens to
    be commutative; character machinery requires the cyclic-product form.
    """
    cayley = np.asarray(table, dtype=np.int64)
    if cayley.ndim != 2 or cayley.shape[0] != cayley.shape[1]:
        raise ValueError("cayley table must be square")
    n = cayley.shape[0]
    if n == 0:
        raise ValueError("empty cayley table")
    if cayley.min() < 0 or cayley.max() >= n:
        raise ValueError("cayley entries must index elements 0..order-1")

    ar = np.arange(n)
    # mark the elements each row and each column holds: a Latin square
    # marks every one
    in_row, in_col = np.zeros((2, n, n), dtype=bool)
    in_row[ar[:, None], cayley] = True
    in_col[cayley, ar] = True
    if not (in_row.all() and in_col.all()):
        raise ValueError("cayley table is not a Latin square")
    del in_row, in_col          # freed before the compact copy below

    # column 0 holds 0 once, in the row of the only candidate e with e*0 = 0
    identity = int(np.argmax(cayley[:, 0] == 0))
    if not (np.array_equal(cayley[identity], ar) and np.array_equal(cayley[:, identity], ar)):
        raise ValueError("cayley table has no identity element")

    # each row holds the identity once, at the right inverse
    inverse = np.argmax(cayley == identity, axis=1)
    one_sided = np.flatnonzero(cayley[inverse, ar] != identity)
    if one_sided.size:
        raise ValueError(f"element {one_sided[0]} has no two-sided inverse")

    group = FiniteGroup(n, cayley, identity, inverse, abelian_shape=None)
    # rows (x g) y against x (g y), 2^18 entries at a time, from a copy in the narrowest type
    compact, rows = cayley.astype(np.min_scalar_type(n - 1)), max(1, 2**18 // n)
    for g, start in itertools.product(group.generating_set[0], range(0, n, rows)):
        block = slice(start, start + rows)
        if not np.array_equal(compact.take(cayley[block, g], axis=0), compact[block].take(cayley[g], axis=1)):
            raise ValueError("cayley table is not associative")
    return group


@dataclass(frozen=True)
class Character:
    """A character of a cyclic-product group, held as exact exponents."""

    shape: tuple[int, ...]
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        shape = tuple(int(n) for n in self.shape)
        if len(self.exponents) != len(shape):
            raise ValueError("exponent tuple length must match the shape")
        exps = tuple(int(k) % n for k, n in zip(self.exponents, shape))
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "exponents", exps)

    def mul(self, other: "Character") -> "Character":
        self._check_compatible(other)
        return Character(self.shape, tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def inv(self) -> "Character":
        return Character(self.shape, tuple(-k for k in self.exponents))

    def quotient(self, other: "Character") -> "Character":
        return self.mul(other.inv())

    def evaluate(self, group: FiniteGroup, element: int) -> complex:
        coords = group.coords(element)
        phase = sum(Fraction(k * s, n) for k, s, n in zip(self.exponents, coords, self.shape))
        return complex(np.exp(2j * np.pi * float(phase)))

    def values(self, group: FiniteGroup) -> np.ndarray:
        """Value at every element of the group, index-aligned."""
        return character_table(group, [self])[0]

    def _check_compatible(self, other: "Character") -> None:
        if self.shape != other.shape:
            raise ValueError("characters live on different groups")

    def __repr__(self) -> str:
        return f"Character{self.exponents}"


@dataclass(frozen=True, eq=False)
class SpectrumSet:
    """An ordered, duplicate-free set of characters of one group."""

    group: FiniteGroup
    characters: tuple[Character, ...]

    def __post_init__(self) -> None:
        shape = self.group.abelian_shape
        if shape is None:
            raise NonAbelianError("spectrum sets need a cyclic-product group")
        for c in self.characters:
            if c.shape != shape:
                raise ValueError("character shape does not match the group")
        if len({c.exponents for c in self.characters}) != len(self.characters):
            raise ValueError("spectrum set contains duplicate characters")

    def __len__(self) -> int:
        return len(self.characters)

    def __iter__(self):
        return iter(self.characters)

    def __contains__(self, item: Character) -> bool:
        return item.exponents in {c.exponents for c in self.characters}

    def exponent_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(c.exponents for c in self.characters)

    def table(self) -> np.ndarray:
        """``(len, order)`` matrix of character values, rows index-aligned."""
        return character_table(self.group, self.characters)

    def __repr__(self) -> str:
        return f"SpectrumSet({[c.exponents for c in self.characters]})"


def character_table(group: FiniteGroup, chars: Sequence[Character]) -> np.ndarray:
    """``(len(chars), order)`` matrix of character values, rows in the given
    order, columns index-aligned: one ``(k / n) @ coords`` product, stacked
    by row so a row's rounding does not depend on the other rows, then exp."""
    shape = group._shape_or_raise()
    if any(c.shape != shape for c in chars):
        raise NonAbelianError("character shape does not match the group")
    k = np.array([c.exponents for c in chars], dtype=float).reshape(len(chars), 1, len(shape))
    phases = (k / np.array(shape, dtype=float)) @ group.coordinate_table().astype(float)
    return np.exp(2j * np.pi * phases[:, 0])


def spectrum(group: FiniteGroup, characters: Iterable[Character], sort: bool = False) -> SpectrumSet:
    """Assemble a spectrum set, dropping duplicates but keeping order."""
    unique = tuple(dict.fromkeys(characters))
    if sort:
        unique = tuple(sorted(unique, key=lambda c: c.exponents))
    return SpectrumSet(group, unique)


def dual_group(group: FiniteGroup) -> SpectrumSet:
    """All characters of a cyclic-product group, in lexicographic order."""
    shape = group._shape_or_raise()
    chars = (Character(shape, exps) for exps in itertools.product(*(range(n) for n in shape)))
    return SpectrumSet(group, tuple(chars))


def difference_set(e: SpectrumSet) -> SpectrumSet:
    """The set of quotients ``sigma * tau^-1`` over all pairs in ``e``, sorted
    by exponents: the pairwise exponent differences modulo the shape, one
    integer array, with its distinct rows in lexicographic order."""
    shape = e.group.abelian_shape
    exps = np.array([c.exponents for c in e.characters], dtype=np.int64).reshape(len(e), len(shape))
    diffs = (exps[:, None, :] - exps[None, :, :]) % np.array(shape)
    rows = np.unique(diffs.reshape(-1, len(shape)), axis=0)
    return SpectrumSet(e.group, tuple(Character(shape, tuple(row)) for row in rows.tolist()))


# ---------------------------------------------------------------------------
# Subgroups of shaped abelian groups, and character restriction.
#
# H, generated by some elements, is enumerated as coordinate rows: each
# generator adds its multiples below its order modulo the span so far.  H is
# then split greedily: with K the span of the cyclic factors chosen so far, a
# direct summand of H, the next factor is an element y of largest order among
# those whose order equals their order modulo K (so <y> meets K only in 0),
# the one of lowest index, so the factors depend on H and not on how it was
# generated.  That order is the exponent of H/K, so K + <y> is again a direct
# summand (S. Lang, Algebra, ch. I, sec. 8), and the reversed list of factor
# orders is an invariant-factor chain m_1 | m_2 | ....
# ---------------------------------------------------------------------------


def _orders_modulo(coords: np.ndarray, span: np.ndarray, group: FiniteGroup, exponent: int) -> np.ndarray:
    """For each coordinate row x, the least divisor t of ``exponent`` with
    t x in the subgroup of coordinate rows ``span``; ``exponent`` must be a
    multiple of the order of every x modulo ``span``."""
    shape = group.abelian_shape
    inside = np.zeros(group.order, dtype=bool)
    inside[np.ravel_multi_index(tuple(span.T), shape)] = True
    orders = np.zeros(len(coords), dtype=np.int64)
    for t in range(exponent, 0, -1):
        if exponent % t == 0:
            orders[inside[np.ravel_multi_index(tuple((t * coords).T), shape, mode="wrap")]] = t
    return orders


def _extend(span: np.ndarray, y: np.ndarray, t: int, shape: tuple[int, ...]) -> np.ndarray:
    """The coordinate rows ``k + a y`` for k in ``span`` and 0 <= a < t."""
    return (span[:, None, :] + np.arange(t)[None, :, None] * y).reshape(-1, len(shape)) % np.array(shape)


@dataclass(frozen=True, eq=False)
class SubgroupRestriction:
    """A generated subgroup of a shaped abelian group, with the surjective
    restriction map from characters of the big group to characters of the
    subgroup.

    :param group: the ambient group G.
    :param subgroup: H in cyclic-product form (its own element indexing).
    :param embedding: ``(|H|,)`` array sending H-indices to G-indices.
    :param generator_coords: coordinates in G of the cyclic generators of H,
        one per factor of ``subgroup.abelian_shape``.
    """

    group: FiniteGroup
    subgroup: FiniteGroup
    embedding: np.ndarray
    generator_coords: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "embedding", np.ascontiguousarray(self.embedding, dtype=np.int64))
        self.embedding.flags.writeable = False

    def restrict(self, chi: Character) -> Character:
        """Restrict a character of G to H, as a character of H."""
        if chi.shape != self.group.abelian_shape:
            raise ValueError("character does not live on the ambient group")
        h_shape = self.subgroup.abelian_shape
        assert h_shape is not None
        exps = []
        big = lcm(*chi.shape) if chi.shape else 1
        for coords, m in zip(self.generator_coords, h_shape):
            num = sum(k * c * (big // n) for k, c, n in zip(chi.exponents, coords, chi.shape))
            # chi(generator) is an m-th root of unity, so m*num/big is integral
            e_num = m * num
            if e_num % big != 0:
                raise ValueError("character value on a subgroup generator is not an m-th root of unity")
            exps.append((e_num // big) % m)
        return Character(h_shape, tuple(exps))

    def restrict_spectrum(self, e: SpectrumSet) -> SpectrumSet:
        if not e.group.is_same(self.group):
            raise ValueError("spectrum does not live on the ambient group")
        return spectrum(self.subgroup, (self.restrict(c) for c in e.characters), sort=True)


def subgroup_and_restriction(group: FiniteGroup, generators: Sequence[int]) -> SubgroupRestriction:
    """The subgroup generated by the given elements, in cyclic-product form,
    together with the character restriction data."""
    shape = group._shape_or_raise()
    h = np.zeros((1, len(shape)), dtype=np.int64)
    for y in (np.array(group.coords(g)) for g in generators):
        h = _extend(h, y, int(_orders_modulo(y[None], h, group, lcm(*shape))[0]), shape)
    h = h[np.argsort(np.ravel_multi_index(tuple(h.T), shape))]

    orders = np.lcm.reduce(np.array(shape) // np.gcd(h, np.array(shape)), axis=1)
    span, factors = h[:1], []
    while len(span) < len(h):
        free = np.where(orders == _orders_modulo(h, span, group, int(orders.max())), orders, 0)
        y = h[int(np.argmax(free))]
        factors.append((int(free.max()), tuple(int(c) for c in y)))
        span = _extend(span, y, factors[-1][0], shape)
    h_shape, gen_coords = zip(*(factors[::-1] or [(1, (0,) * len(shape))]))

    sub = make_cyclic_product(h_shape)
    g_coords = np.array(gen_coords).T @ sub.coordinate_table() % np.array(shape).reshape(-1, 1)
    embedding = np.ravel_multi_index(tuple(g_coords), shape)
    if len(set(embedding.tolist())) != sub.order:
        raise AssertionError("subgroup embedding is not injective; bug in subgroup decomposition")
    return SubgroupRestriction(group, sub, embedding, gen_coords)

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
from math import lcm
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

# Associativity is checked exhaustively up to this order, by sampling above.
_EXHAUSTIVE_ORDER = 64
_ASSOC_SAMPLES = 2000


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
    order = 1
    for n in shape:
        order *= n
    if order > MAX_ORDER:
        raise ValueError(f"group order {order} exceeds the bound {MAX_ORDER}")

    coords = np.array(np.unravel_index(np.arange(order), shape))  # (r, order)
    shape_col = np.array(shape).reshape(-1, 1, 1)
    sums = (coords[:, :, None] + coords[:, None, :]) % shape_col
    cayley = np.ravel_multi_index(tuple(sums), shape)
    inverse = np.ravel_multi_index(tuple((-coords) % shape_col[:, :, 0]), shape)
    return FiniteGroup(order, cayley, 0, inverse, abelian_shape=shape)


def from_cayley(table: Sequence[Sequence[int]]) -> FiniteGroup:
    """Build a group from an explicit Cayley table, validating the axioms.

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
    sorted_rows = np.sort(cayley, axis=1)
    sorted_cols = np.sort(cayley, axis=0)
    if not (np.array_equal(sorted_rows, np.tile(ar, (n, 1)))
            and np.array_equal(sorted_cols.T, np.tile(ar, (n, 1)))):
        raise ValueError("cayley table is not a Latin square")

    identity = -1
    for e in range(n):
        if np.array_equal(cayley[e], ar) and np.array_equal(cayley[:, e], ar):
            identity = e
            break
    if identity < 0:
        raise ValueError("cayley table has no identity element")

    inverse = np.full(n, -1, dtype=np.int64)
    for a in range(n):
        right = np.nonzero(cayley[a] == identity)[0]
        if len(right) != 1 or cayley[right[0], a] != identity:
            raise ValueError(f"element {a} has no two-sided inverse")
        inverse[a] = right[0]

    _check_associativity(cayley)
    return FiniteGroup(n, cayley, identity, inverse, abelian_shape=None)


def _check_associativity(cayley: np.ndarray) -> None:
    n = cayley.shape[0]
    if n <= _EXHAUSTIVE_ORDER:
        for a in range(n):
            # (a*b)*c vs a*(b*c) for all b, c at once
            if not np.array_equal(cayley[cayley[a], :], cayley[a][cayley]):
                raise ValueError("cayley table is not associative")
    else:
        rng = np.random.default_rng(0)
        abc = rng.integers(0, n, size=(_ASSOC_SAMPLES, 3))
        left = cayley[cayley[abc[:, 0], abc[:, 1]], abc[:, 2]]
        right = cayley[abc[:, 0], cayley[abc[:, 1], abc[:, 2]]]
        if not np.array_equal(left, right):
            raise ValueError("cayley table is not associative")


@dataclass(frozen=True)
class Character:
    """A character of a cyclic-product group, held as exact exponents."""

    shape: tuple[int, ...]
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        shape = tuple(int(n) for n in self.shape)
        exps = tuple(int(k) % n for k, n in zip(self.exponents, shape))
        if len(exps) != len(shape):
            raise ValueError("exponent tuple length must match the shape")
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
# For G = Z_{n_1} x ... x Z_{n_r} and a generated subgroup H, treat G as the
# quotient of Z^r by the lattice N spanned by n_j e_j.  The preimage of H is
# the lattice L spanned by the generators together with N, and H = L/N.  Two
# Smith-normal-form passes with tracked unimodular transforms give a basis
# c_1, ..., c_s of L whose multiples m_i c_i form a basis of N, hence
# H = (+) Z_{m_i} with explicit generators c_i.  All arithmetic is on exact
# Python ints.
# ---------------------------------------------------------------------------


def _snf_tracked(mat, basis, basis_inv=None):
    """Diagonalize an integer matrix by unimodular row/column operations.

    ``basis`` (r x r) is updated so that the pair of lattices
    ``basis @ Z^r`` and ``basis @ mat @ Z^c`` is invariant: a row operation
    ``mat <- E mat`` is paired with ``basis <- basis E^-1`` (and, when given,
    ``basis_inv <- E basis_inv``).  Column operations touch only ``mat``.
    Returns the diagonal as a list (nonnegative, length min(r, c)).
    """
    m = [list(map(int, row)) for row in mat]
    c_ = [list(map(int, row)) for row in basis]
    ci = None if basis_inv is None else [list(map(int, row)) for row in basis_inv]
    rows, cols = len(m), len(m[0]) if m else 0

    def row_swap(i, j):
        m[i], m[j] = m[j], m[i]
        for row in c_:
            row[i], row[j] = row[j], row[i]
        if ci is not None:
            ci[i], ci[j] = ci[j], ci[i]

    def row_add(i, j, k):
        # row_i += k * row_j on mat; col_j -= k * col_i on basis
        m[i] = [x + k * y for x, y in zip(m[i], m[j])]
        for row in c_:
            row[j] -= k * row[i]
        if ci is not None:
            ci[i] = [x + k * y for x, y in zip(ci[i], ci[j])]

    def row_neg(i):
        m[i] = [-x for x in m[i]]
        for row in c_:
            row[i] = -row[i]
        if ci is not None:
            ci[i] = [-x for x in ci[i]]

    def col_swap(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]

    def col_add(i, j, k):
        # col_i += k * col_j
        for row in m:
            row[i] += k * row[j]

    for k in range(min(rows, cols)):
        while True:
            pivots = [(abs(m[i][j]), i, j) for i in range(k, rows) for j in range(k, cols) if m[i][j] != 0]
            if not pivots:
                break
            _, pi, pj = min(pivots)
            if pi != k:
                row_swap(k, pi)
            if pj != k:
                col_swap(k, pj)
            if m[k][k] < 0:
                row_neg(k)
            done = True
            for i in range(k + 1, rows):
                q = m[i][k] // m[k][k]
                if q:
                    row_add(i, k, -q)
                if m[i][k]:
                    done = False
            for j in range(k + 1, cols):
                q = m[k][j] // m[k][k]
                if q:
                    col_add(j, k, -q)
                if m[k][j]:
                    done = False
            if done:
                break
        if k < rows and m[k][k] < 0:
            row_neg(k)

    diag = [m[k][k] for k in range(min(rows, cols))]
    return diag, c_, ci


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
    r = len(shape)
    gen_cols = [list(group.coords(g)) for g in generators]

    # L = lattice spanned by the generators and N = diag(shape) * Z^r
    a_mat = [[gen_cols[j][i] for j in range(len(gen_cols))] + [shape[i] * (i == j) for j in range(r)]
             for i in range(r)]
    ident = [[int(i == j) for j in range(r)] for i in range(r)]
    d_diag, c_basis, c_inv = _snf_tracked(a_mat, ident, ident)

    # basis of L is c_i * d_i; X = B_L^-1 diag(shape) must be integral
    x_mat = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(r):
            num = c_inv[i][j] * shape[j]
            if num % d_diag[i] != 0:
                raise AssertionError("nested-lattice division failed; bug in subgroup decomposition")
            x_mat[i][j] = num // d_diag[i]
    b_l = [[c_basis[i][j] * d_diag[j] for j in range(r)] for i in range(r)]

    m_diag, h_basis, _ = _snf_tracked(x_mat, b_l)

    factors = [(m, [h_basis[i][j] for i in range(r)]) for j, m in enumerate(m_diag) if m > 1]
    if factors:
        h_shape = [m for m, _ in factors]
        gen_coords = tuple(tuple(c % n for c, n in zip(col, shape)) for _, col in factors)
    else:
        h_shape = [1]
        gen_coords = ((0,) * r,)

    sub = make_cyclic_product(h_shape)
    h_coords = sub.coordinate_table()  # (s, |H|)
    gen_mat = np.array(gen_coords).T  # (r, s)
    g_coords = gen_mat @ h_coords % np.array(shape).reshape(-1, 1)
    embedding = np.ravel_multi_index(tuple(g_coords), shape)
    if len(set(embedding.tolist())) != sub.order:
        raise AssertionError("subgroup embedding is not injective; bug in subgroup decomposition")

    return SubgroupRestriction(group, sub, embedding, gen_coords)

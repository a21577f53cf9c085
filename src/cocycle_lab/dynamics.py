"""The odometer on the depth-k prefix quotient and its full group.

The odometer is add-one-with-carry on digit words; the all-max word wraps
to all-zeros, which is the exact projection of the infinite adding machine
to k coordinates.  In x_1-fastest table order the map is a +1 counter on
indices, so the quotient is a single cycle of length N = prod p_i and
every table walk is a range scan.

Full-group elements are stored by integer jump functions x -> T^{j(x)} x;
on indices a jump acts as i -> (i + j_i) mod N.  Markers are fixed to the
sets A_n = {x_1 = ... = x_n = 0}.  In the infinite model their
intersection is the single point 0-bar rather than empty, deviating from
vanishing-marker sequences on one orbit; at finite depth the induced
towers partition the quotient exactly, which is all the downstream
constructions use.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from ._records import record
from .space import (
    CylinderFunction,
    DepthError,
    binary_bases,
    check_bases,
    full_prefix_index,
    index_to_prefix,
    space_size,
    validate_prefix,
)
from .values import INTEGERS


class NotBijectiveError(ValueError):
    """Raised when a jump function does not induce a bijection."""


@record
class Odometer:
    """Add-one-with-carry on the depth-k prefix space."""

    bases: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "bases", check_bases(self.bases))

    @classmethod
    def binary(cls, depth: int) -> "Odometer":
        """The 2-odometer truncated at the given depth."""
        return cls(binary_bases(depth))

    @property
    def depth(self) -> int:
        return len(self.bases)

    @property
    def size(self) -> int:
        return space_size(self.bases)

    def step(self, x: Sequence[int]) -> tuple[int, ...]:
        """Increment with carry: +1 on the x_1-fastest index, all-max wraps to 0."""
        i = full_prefix_index(x, self.bases)
        return index_to_prefix((i + 1) % self.size, self.bases)

    def step_index(self, i: int) -> int:
        return (i + 1) % self.size

    def step_inverse(self, x: Sequence[int]) -> tuple[int, ...]:
        i = full_prefix_index(x, self.bases)
        return index_to_prefix((i - 1) % self.size, self.bases)

    @cached_property
    def permutation(self) -> tuple[int, ...]:
        n = self.size
        return tuple((i + 1) % n for i in range(n))

    def orbit(self, x: Sequence[int]) -> list[tuple[int, ...]]:
        """The full forward orbit of x, of length N."""
        i = full_prefix_index(x, self.bases)
        return [index_to_prefix((i + t) % self.size, self.bases) for t in range(self.size)]

    def as_full_group_element(self) -> "FullGroupElement":
        return FullGroupElement(self, CylinderFunction.constant(self.bases, INTEGERS, 1))

    def to_json(self):
        return {"bases": list(self.bases)}


@record
class FullGroupElement:
    """An automorphism moving every point along its odometer orbit.

    The jump function is an integer-valued cylinder function j with
    x -> T^{j(x)} x a bijection of the prefix space (checked at
    construction).  Jump functions compose additively:
    j_{R@S}(x) = j_R(Sx) + j_S(x).
    """

    model: Odometer
    jump: CylinderFunction

    def __post_init__(self):
        if self.jump.group != INTEGERS:
            raise TypeError("jump function must be integer-valued")
        if (
            self.jump.depth > self.model.depth
            or self.jump.bases != self.model.bases[: self.jump.depth]
        ):
            raise DepthError("jump function does not live on the model's prefixes")
        perm = self.permutation  # forces the bijectivity check

    @cached_property
    def _jump_table(self) -> tuple[int, ...]:
        return self.jump.lift(self.model.bases).table

    @cached_property
    def permutation(self) -> tuple[int, ...]:
        n = self.model.size
        perm = tuple((i + j) % n for i, j in enumerate(self._jump_table))
        if len(set(perm)) != n:
            raise NotBijectiveError("jump function does not induce a bijection")
        return perm

    @cached_property
    def inverse_permutation(self) -> tuple[int, ...]:
        inv = [0] * len(self.permutation)
        for i, p in enumerate(self.permutation):
            inv[p] = i
        return tuple(inv)

    @property
    def bases(self) -> tuple[int, ...]:
        return self.model.bases

    def jump_at(self, i: int) -> int:
        return self._jump_table[i]

    def apply_index(self, i: int) -> int:
        return self.permutation[i]

    def apply(self, x: Sequence[int]) -> tuple[int, ...]:
        i = full_prefix_index(x, self.model.bases)
        return index_to_prefix(self.permutation[i], self.model.bases)

    def compose(self, other: "FullGroupElement") -> "FullGroupElement":
        """self after other: x -> self(other(x))."""
        if other.model != self.model:
            raise DepthError("full-group elements live on different models")
        mine, theirs = self._jump_table, other._jump_table
        perm = other.permutation
        table = tuple(mine[perm[i]] + theirs[i] for i in range(self.model.size))
        return FullGroupElement(
            self.model, CylinderFunction(self.model.bases, INTEGERS, table)
        )

    def inverse(self) -> "FullGroupElement":
        inv = self.inverse_permutation
        table = tuple(-self._jump_table[inv[i]] for i in range(self.model.size))
        return FullGroupElement(
            self.model, CylinderFunction(self.model.bases, INTEGERS, table)
        )

    def same_mapping(self, other: "FullGroupElement") -> bool:
        return self.model == other.model and self.permutation == other.permutation

    def is_identity(self) -> bool:
        return all(p == i for i, p in enumerate(self.permutation))

    @classmethod
    def identity(cls, model: Odometer) -> "FullGroupElement":
        return cls(model, CylinderFunction.constant(model.bases, INTEGERS, 0))

    def to_json(self):
        return {"model": self.model.to_json(), "jump": self.jump.to_json()}

    @classmethod
    def from_json(cls, obj) -> "FullGroupElement":
        return cls(Odometer(obj["model"]["bases"]), CylinderFunction.from_json(obj["jump"]))


# ---------------------------------------------------------------------------
# Digit flips (generators of the commuting-involution group on base 2)


def delta_apply(n: int, x: Sequence[int], bases: Sequence[int] | None = None) -> tuple[int, ...]:
    """Flip digit n of x (1-indexed); the coordinate must be binary.

    The flips are involutions and commute with each other.
    """
    if bases is None:
        bases = (2,) * len(x)
    if not 1 <= n <= len(x):
        raise IndexError(f"digit index {n} out of range 1..{len(x)}")
    if bases[n - 1] != 2:
        raise ValueError(f"coordinate {n} has base {bases[n - 1]}, need 2")
    out = list(validate_prefix(x, bases))
    out[n - 1] ^= 1
    return tuple(out)


def delta_index(model: Odometer, n: int, i: int) -> int:
    """Index action of the digit-n flip."""
    if not 1 <= n <= model.depth:
        raise IndexError(f"digit index {n} out of range 1..{model.depth}")
    if model.bases[n - 1] != 2:
        raise ValueError(f"coordinate {n} has base {model.bases[n - 1]}, need 2")
    weight = space_size(model.bases[: n - 1])
    digit = (i // weight) % 2
    return i + (1 - 2 * digit) * weight


def delta_permutation(model: Odometer, n: int) -> tuple[int, ...]:
    return tuple(delta_index(model, n, i) for i in range(model.size))


def delta_element(model: Odometer, n: int) -> FullGroupElement:
    """The digit-n flip as a full-group element of the odometer."""
    size = model.size
    table = tuple(delta_index(model, n, i) - i for i in range(size))
    return FullGroupElement(model, CylinderFunction(model.bases, INTEGERS, table))


# ---------------------------------------------------------------------------
# Towers and markers


@record
class Tower:
    """First-return tower: levels T^i(base) for 0 <= i < height."""

    height: int
    base_indices: tuple[int, ...]


@record
class TowerDecomposition:
    """Kakutani decomposition over a marker set, towers grouped by height."""

    model: Odometer
    marker: tuple[int, ...]
    towers: tuple[Tower, ...]

    def level_indices(self, tower: Tower, level: int) -> tuple[int, ...]:
        n = self.model.size
        return tuple((b + level) % n for b in tower.base_indices)

    def top_indices(self) -> tuple[int, ...]:
        tops: list[int] = []
        for tower in self.towers:
            tops.extend(self.level_indices(tower, tower.height - 1))
        return tuple(sorted(tops))

    def base_indices(self) -> tuple[int, ...]:
        out: list[int] = []
        for tower in self.towers:
            out.extend(tower.base_indices)
        return tuple(sorted(out))

    def verify_partition(self) -> bool:
        seen: list[int] = []
        for tower in self.towers:
            for level in range(tower.height):
                seen.extend(self.level_indices(tower, level))
        return sorted(seen) == list(range(self.model.size))

    def to_json(self):
        return {
            "model": self.model.to_json(),
            "marker": [list(index_to_prefix(i, self.model.bases)) for i in self.marker],
            "towers": [
                {
                    "height": t.height,
                    "base": [
                        list(index_to_prefix(i, self.model.bases))
                        for i in t.base_indices
                    ],
                }
                for t in self.towers
            ],
        }


def _marker_indices(model: Odometer, marker) -> tuple[int, ...]:
    indices = set()
    for entry in marker:
        if isinstance(entry, int):
            if not 0 <= entry < model.size:
                raise ValueError(f"marker index {entry} out of range")
            indices.add(entry)
        else:
            indices.add(full_prefix_index(entry, model.bases))
    return tuple(sorted(indices))


def towers_from_marker(model: Odometer, marker) -> TowerDecomposition:
    """First-return tower decomposition over a marker set.

    On the single-cycle quotient any nonempty marker meets the orbit, the
    heights are the first-return times -- the gaps between consecutive
    sorted marker indices round the cycle -- and the levels partition the
    prefix space.
    """
    indices = _marker_indices(model, marker)
    if not indices:
        raise ValueError("marker set must be nonempty")
    by_height: dict[int, list[int]] = {}
    for a, b in zip(indices, indices[1:] + (indices[0] + model.size,)):
        by_height.setdefault(b - a, []).append(a)
    towers = tuple(
        Tower(height, tuple(bases_)) for height, bases_ in sorted(by_height.items())
    )
    decomposition = TowerDecomposition(model, indices, towers)
    if not decomposition.verify_partition():
        raise AssertionError("tower levels failed to partition the prefix space")
    return decomposition


@record
class MarkerSequence:
    """The explicit markers A_n = {x_1 = ... = x_n = 0}, n = 1..depth-1.

    D_n is the matching top set {x_1 = ... = x_n = all-max} and
    K_n = X minus D_n is where the n-th periodic approximation already
    agrees with the odometer.
    """

    model: Odometer

    @property
    def max_index(self) -> int:
        return self.model.depth - 1

    def _check(self, n: int) -> int:
        if not 1 <= n <= self.max_index:
            raise IndexError(f"marker index {n} out of range 1..{self.max_index}")
        return space_size(self.model.bases[:n])

    def marker_indices(self, n: int) -> tuple[int, ...]:
        w = self._check(n)
        return tuple(range(0, self.model.size, w))

    def top_indices(self, n: int) -> tuple[int, ...]:
        w = self._check(n)
        return tuple(range(w - 1, self.model.size, w))

    def marker_prefixes(self, n: int):
        return [index_to_prefix(i, self.model.bases) for i in self.marker_indices(n)]

    def top_prefixes(self, n: int):
        return [index_to_prefix(i, self.model.bases) for i in self.top_indices(n)]

    def tower_height(self, n: int) -> int:
        return self._check(n)


def periodic_approx(model: Odometer, marker) -> FullGroupElement:
    """Periodic approximation built over a marker set.

    Equals the odometer off the tower tops; each top jumps back to its
    tower base, so the element is periodic with period the tower height
    and lies in the full group.
    """
    decomposition = (
        marker
        if isinstance(marker, TowerDecomposition)
        else towers_from_marker(model, marker)
    )
    table = [1] * model.size
    for tower in decomposition.towers:
        for i in decomposition.level_indices(tower, tower.height - 1):
            table[i] = -tower.height + 1
    return FullGroupElement(model, CylinderFunction(model.bases, INTEGERS, tuple(table)))


def stabilization_index(model: Odometer, x: Sequence[int]) -> int:
    """Least n with P_i x = T x for every i >= n, clipped at the depth.

    Equals 1 + the length of the initial all-max digit run of x: the
    approximations disagree with the odometer exactly on the top sets D_i,
    and x lies in D_i iff its first i digits are all maximal.
    """
    i = full_prefix_index(x, model.bases)
    run = 0
    for b in model.bases:
        i, d = divmod(i, b)
        if d != b - 1:
            break
        run += 1
    return min(run + 1, model.depth)

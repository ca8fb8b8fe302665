"""Total transformations of {1..n} under left-to-right composition.

All interfaces are 1-based: a transformation of degree n is the tuple
(1t, 2t, ..., nt) of images.  Composition is (i)(s*t) = ((i)s)t.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial
from typing import NamedTuple

from .errors import CapacityError, DegreeMismatch

# Enumerating a full T_n materialises n^n tuples; 7^7 is still comfortable,
# 8^8 is not.
MAX_ENUM_DEGREE = 7


@dataclass(frozen=True)
class Transformation:
    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if n == 0:
            raise ValueError("degree must be positive")
        for v in self.images:
            if not 1 <= v <= n:
                raise ValueError(f"image {v} out of range 1..{n}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def image(self) -> frozenset[int]:
        return frozenset(self.images)

    def rank(self) -> int:
        return len(set(self.images))

    def kernel(self) -> tuple[tuple[int, ...], ...]:
        """Partition of {1..n} into blocks of equal image, each block sorted,
        blocks ordered by least element."""
        blocks: dict[int, list[int]] = {}
        for i, v in enumerate(self.images, start=1):
            blocks.setdefault(v, []).append(i)
        return tuple(sorted((tuple(b) for b in blocks.values()), key=lambda b: b[0]))

    def is_idempotent(self) -> bool:
        # idempotent iff every point of the image is fixed
        return all(self.images[v - 1] == v for v in set(self.images))

    def is_permutation(self) -> bool:
        return self.rank() == self.degree

    def __repr__(self):
        return f"Transformation({list(self.images)})"


class TransformationProps(NamedTuple):
    image: frozenset[int]
    kernel: tuple[tuple[int, ...], ...]
    rank: int
    idempotent: bool


def transformation(images) -> Transformation:
    return Transformation(tuple(images))


def identity(n: int) -> Transformation:
    return Transformation(tuple(range(1, n + 1)))


def compose(t1: Transformation, t2: Transformation) -> Transformation:
    """Left-to-right composite: i -> (i t1) t2."""
    if t1.degree != t2.degree:
        raise DegreeMismatch(t1.degree, t2.degree)
    im2 = t2.images
    return Transformation(tuple(im2[v - 1] for v in t1.images))


def transformation_props(t: Transformation) -> TransformationProps:
    return TransformationProps(t.image(), t.kernel(), t.rank(), t.is_idempotent())


def epsilon(n: int, i: int, j: int) -> Transformation:
    """The rank n-1 idempotent sending j to i and fixing every other point."""
    if n < 2:
        raise ValueError(f"degree {n} < 2")
    if i == j:
        raise ValueError(f"indices must differ, got i = j = {i}")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"indices ({i},{j}) out of range 1..{n}")
    images = list(range(1, n + 1))
    images[j - 1] = i
    return Transformation(tuple(images))


def index_pairs(n: int) -> list[tuple[int, int]]:
    """All ordered pairs (i, j) with i != j, lexicographic."""
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


def part_size(n: int, part: str = "full") -> int:
    """Size of the "full" (n^n) or "singular" (n^n - n!) part of T_n."""
    if part not in ("full", "singular"):
        raise ValueError(f"unknown part {part!r}")
    return n**n - (factorial(n) if part == "singular" else 0)


def enumerate_Tn(n: int, part: str = "full") -> list[Transformation]:
    """Enumerate the "full" part of T_n (n^n maps) or its "singular" part (the
    non-invertible maps; empty for n <= 1), in lexicographic order of image
    sequences."""
    if not 1 <= n <= MAX_ENUM_DEGREE:
        raise CapacityError(f"degree {n} outside supported range 1..{MAX_ENUM_DEGREE}")
    if part not in ("full", "singular"):
        raise ValueError(f"unknown part {part!r}")
    maps = (Transformation(images) for images in itertools.product(range(1, n + 1), repeat=n))
    if part == "full":
        return list(maps)
    return [t for t in maps if not t.is_permutation()]

"""Total transformations of {1..n} under left-to-right composition.

A transformation of degree n is the plain tuple (1t, 2t, ..., nt) of its
images, 1-based.  Composition is (i)(s*t) = ((i)s)t.  Tuples built here are
valid by construction; a tuple from outside the program goes through
``transformation``, which checks it.
"""

from __future__ import annotations

import itertools
from math import factorial
from operator import itemgetter

from .errors import CapacityError, DegreeMismatch

# Enumerating a full T_n materialises n^n tuples; 7^7 is still comfortable,
# 8^8 is not.
MAX_ENUM_DEGREE = 7


def transformation(images) -> tuple[int, ...]:
    """The transformation with these images, checked: at least one image, and
    each in 1..n for the degree n = len(images)."""
    images = tuple(images)
    n = len(images)
    if n == 0:
        raise ValueError("degree must be positive")
    for v in images:
        if not 1 <= v <= n:
            raise ValueError(f"image {v} out of range 1..{n}")
    return images


def rank(t) -> int:
    return len(set(t))


def is_permutation(t) -> bool:
    return rank(t) == len(t)


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def compose(t1, t2) -> tuple[int, ...]:
    """Left-to-right composite: i -> (i t1) t2."""
    if len(t1) != len(t2):
        raise DegreeMismatch(len(t1), len(t2))
    return tuple([t2[v - 1] for v in t1])


def left_multiplier(t):
    """y -> compose(t, y) for a fixed t in one C call, y's degree unchecked;
    an itemgetter of one index returns the bare item, so degree 1 is wrapped."""
    return itemgetter(*[v - 1 for v in t]) if len(t) > 1 else lambda y: (y[t[0] - 1],)


def epsilon(n: int, i: int, j: int) -> tuple[int, ...]:
    """The rank n-1 idempotent sending j to i and fixing every other point."""
    if n < 2:
        raise ValueError(f"degree {n} < 2")
    if i == j:
        raise ValueError(f"indices must differ, got i = j = {i}")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"indices ({i},{j}) out of range 1..{n}")
    images = list(range(1, n + 1))
    images[j - 1] = i
    return tuple(images)


def part_size(n: int, part: str = "full") -> int:
    """Size of the "full" (n^n) or "singular" (n^n - n!) part of T_n."""
    if part not in ("full", "singular"):
        raise ValueError(f"unknown part {part!r}")
    return n**n - (factorial(n) if part == "singular" else 0)


def enumerate_Tn(n: int, part: str = "full") -> list[tuple[int, ...]]:
    """Enumerate the "full" part of T_n (n^n maps) or its "singular" part (the
    non-invertible maps; empty for n <= 1), in lexicographic order of image
    sequences."""
    if not 1 <= n <= MAX_ENUM_DEGREE:
        raise CapacityError(f"degree {n} outside supported range 1..{MAX_ENUM_DEGREE}")
    if part not in ("full", "singular"):
        raise ValueError(f"unknown part {part!r}")
    maps = itertools.product(range(1, n + 1), repeat=n)
    if part == "full":
        return list(maps)
    return [t for t in maps if not is_permutation(t)]

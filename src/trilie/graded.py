"""Graded vector spaces and triangular linear maps.

A graded space is a tuple of component dimensions (d_0, d_1, ...); the
underlying basis is ordered by ascending degree with each component
contiguous from its offset, and a space keeps nothing per basis index.
A map is *triangular* when it never lowers degree, which in this basis
order reads as block-lower-triangular. Triangular maps split uniquely
into degree-homogeneous stripes f_j with f_j(V_k) ⊆ V_{k+j}.

Which blocks a map touches is decided in one place, `block_support`,
in one pass over the stored entries; the predicates read it, and no
predicate copies a block. Rows are walked component by component; a
column's degree is the last component whose offset does not exceed it
(`bisect_right`), so zero-dimensional components are never chosen.

Triangularity is a block condition, so a map keeps no arithmetic but
its bracket; sums and products are those of its `RatMatrix`.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

from .exact import RatMatrix, ShapeError, commutator


class TriangularityError(ValueError):
    """A degree-lowering block where a triangular map was required."""


class GradedSpace:
    __slots__ = ("component_dims", "offsets", "total_dim")

    def __init__(self, component_dims: Sequence[int]):
        dims = tuple(int(d) for d in component_dims)
        if any(d < 0 for d in dims):
            raise ValueError(f"negative component dimension in {dims}")
        self.component_dims = dims
        offsets = []
        pos = 0
        for d in dims:
            offsets.append(pos)
            pos += d
        self.offsets = tuple(offsets)
        self.total_dim = pos

    @property
    def num_components(self) -> int:
        return len(self.component_dims)

    def component_range(self, k: int) -> range:
        """Basis indices belonging to degree-k vectors."""
        return range(self.offsets[k], self.offsets[k] + self.component_dims[k])

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedSpace):
            return NotImplemented
        return self.component_dims == other.component_dims

    __hash__ = None

    def __repr__(self) -> str:
        return f"GradedSpace{self.component_dims}"


class GradedMap:
    __slots__ = ("space", "matrix")

    def __init__(self, space: GradedSpace, matrix: RatMatrix):
        if matrix.rows != space.total_dim or matrix.cols != space.total_dim:
            raise ShapeError(
                f"matrix is {matrix.rows}x{matrix.cols}, space has total dim "
                f"{space.total_dim}"
            )
        self.space = space
        self.matrix = matrix

    @classmethod
    def zero(cls, space: GradedSpace) -> "GradedMap":
        return cls(space, RatMatrix.zeros(space.total_dim, space.total_dim))

    def block(self, k_from: int, k_to: int) -> RatMatrix:
        """Submatrix taking component k_from's columns to k_to's rows."""
        return self.matrix.submatrix(
            self.space.component_range(k_to), self.space.component_range(k_from)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedMap):
            return NotImplemented
        return self.space == other.space and self.matrix == other.matrix

    __hash__ = None

    def bracket(self, other: "GradedMap") -> "GradedMap":
        if self.space != other.space:
            raise ShapeError(
                f"maps live on different spaces {self.space} vs {other.space}"
            )
        return GradedMap(self.space, commutator(self.matrix, other.matrix))

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def __repr__(self) -> str:
        return f"GradedMap({self.space}, {self.matrix})"


def block_support(f: GradedMap) -> set[tuple[int, int]]:
    """The (from_degree, to_degree) pairs of the blocks that hold a
    stored entry, in one pass over the row maps."""
    space, maps = f.space, f.matrix.maps
    offsets = space.offsets
    return {
        (bisect_right(offsets, c) - 1, k)
        for k, (start, d) in enumerate(zip(offsets, space.component_dims))
        for row in maps[start:start + d]
        for c in row
    }


def is_triangular(f: GradedMap) -> tuple[bool, tuple[int, int] | None]:
    """True iff no block lowers degree; else False with the least
    violating (from_degree, to_degree) pair, from-degree first."""
    witness = min((p for p in block_support(f) if p[1] < p[0]), default=None)
    return witness is None, witness


def degree_components(f: GradedMap) -> dict[int, GradedMap]:
    """Split a triangular map into its degree-j stripes, j = 0..c-1."""
    ok, witness = is_triangular(f)
    if not ok:
        raise TriangularityError(
            f"map lowers degree at block {witness[0]} -> {witness[1]}"
        )
    space, maps, n = f.space, f.matrix.maps, f.space.total_dim
    offsets = space.offsets
    stripes = {j: [{} for _ in range(n)] for j in range(space.num_components)}
    for k, (start, d) in enumerate(zip(offsets, space.component_dims)):
        for r in range(start, start + d):
            for c, x in maps[r].items():
                stripes[k + 1 - bisect_right(offsets, c)][r][c] = x
    return {j: GradedMap(space, RatMatrix._from_maps(n, n, m)) for j, m in stripes.items()}


def is_homogeneous(f: GradedMap, j: int) -> bool:
    """True iff f is supported entirely on the stripe (k -> k+j); j may
    be negative."""
    return all(k_to - k_from == j for k_from, k_to in block_support(f))

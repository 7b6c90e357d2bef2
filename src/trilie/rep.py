"""Representations as matrix assignments on a graded space.

A representation pairs an algebra (with declared Levi data) with one
graded map per basis element; it refuses, when it is built, a
declaration with an index outside the algebra (`LeviData.check`), so no
check below meets one. Verification is split into independent
checks: the homomorphism property, triangularity of every image, the
two structural conditions (Levi images homogeneous of degree 0,
nilradical images of strictly positive degree), faithfulness via an
exact kernel computation, and per-component irreducibility under the
Levi action. Irreducibility is decided only for a homomorphism whose
Levi images are homogeneous of degree 0 (condition (i)), since only
then is each component a Levi module; there it takes one rank of the
image of e per component. The sl2 triple is recognized on the 3×3
block of ad on the Levi span, whose closure is decided by
`liealg.span_escape`, the one closure scan that also decides it for the
declaration checks. A separate conjugation check re-runs the structural
conditions after moving both the Levi factor and the grading by the
exponential of a nilpotent element, confirming that the triangular
structure does not depend on the particular Levi factor chosen. It
reads only zero patterns, which a positive scale keeps, so it runs on
integer row maps, one denominator per image, and the nilpotent parts
of exp(±rho(z)) over one integer E.

Triangularity and conditions (i) and (ii) are one gate that reads only
each image's `graded.block_support`, computed once per image.

The homomorphism check is `liealg.bracket_defect`; it builds no matrix
and runs on integer row maps, one denominator per image.

Faithfulness is read off the stored entries: one singleton pass drops
every image that some stored position names alone, and the elimination
takes the rest, the positions that name two or more live images. The
family modules' images store pairwise disjoint positions, so they need
no elimination at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .exact import (
    RatMatrix,
    Vector,
    ZERO,
    add_product,
    add_scaled_rows,
    combination,
    exp_nilpotent,
    exp_nilpotent_rows,
    integral_rows,
    nullspace_basis,
    rank,
    unit_vector,
    vector,
)
from .graded import GradedMap, GradedSpace, block_support, row_support
from .liealg import (
    LeviData,
    LieAlgebra,
    ad_matrix,
    bracket,
    bracket_defect,
    restricted_ad_matrices,
    span_escape,
)


class UnsupportedLeviError(ValueError):
    """Levi factor outside the recognized sl2 shape."""


@dataclass(frozen=True)
class Representation:
    algebra: LieAlgebra
    levi: LeviData
    space: GradedSpace
    images: tuple[GradedMap, ...]

    def __post_init__(self):
        if len(self.images) != self.algebra.dim:
            raise ValueError("one image per basis element required")
        self.levi.check(self.algebra.dim)
        wrapped = tuple(
            im if isinstance(im, GradedMap) else GradedMap(self.space, im)
            for im in self.images
        )
        for im in wrapped:
            if im.space != self.space:
                raise ValueError("image lives on the wrong graded space")
        object.__setattr__(self, "images", wrapped)

    def image_of(self, x: Sequence) -> GradedMap:
        """Image of an arbitrary algebra element (coordinate vector)."""
        x = vector(x)
        if len(x) != self.algebra.dim:
            raise ValueError("coordinate length does not match algebra dim")
        mats = [im.matrix for im in self.images]
        if not mats:
            return GradedMap.zero(self.space)  # the zero algebra has no images
        return GradedMap(self.space, combination(mats, enumerate(x)))


def verify_homomorphism(rho: Representation) -> tuple[bool, tuple[int, int] | None]:
    """rho([b_i, b_j]) = [rho(b_i), rho(b_j)] over all pairs i < j, by the
    one defect scan `liealg.bracket_defect`; the witness is the first
    failing pair."""
    defect = bracket_defect(rho.algebra, [im.matrix for im in rho.images])
    return (True, None) if defect is None else (False, defect[:2])


def _structure_conditions(
    supports: Sequence[set[tuple[int, int]]],
    levi_supports: Sequence[tuple[int, set[tuple[int, int]]]],
    nilrad_indices: Sequence[int],
) -> tuple[dict, dict]:
    """The one gate, on each image's `block_support`: every image
    triangular, (i) each Levi image in degree-0 blocks only, (ii) each
    nilradical image triangular with no degree-0 block. The Levi pairs
    carry the index a witness names. Returns (flags, witnesses)."""
    witnesses: dict = {}
    lowering = [min((p for p in sp if p[1] < p[0]), default=None) for sp in supports]

    triangular_all = True
    for i, w in enumerate(lowering):
        if w is not None:
            triangular_all = False
            witnesses["triangular_all"] = {"basis_index": i, "block": w}
            break

    condition_i = True
    for s, support in levi_supports:
        if any(k_from != k_to for k_from, k_to in support):
            condition_i = False
            witnesses["condition_i"] = {"levi_index": s}
            break

    condition_ii = True
    for z in nilrad_indices:
        if lowering[z] is not None:
            condition_ii = False
            witnesses["condition_ii"] = {"nilrad_index": z, "block": lowering[z]}
            break
        if any(k_from == k_to for k_from, k_to in supports[z]):
            condition_ii = False
            witnesses["condition_ii"] = {
                "nilrad_index": z,
                "block": "nonzero degree-0 stripe",
            }
            break

    flags = {
        "triangular_all": triangular_all,
        "condition_i": condition_i,
        "condition_ii": condition_ii,
    }
    return flags, witnesses


def verify_triangular_conditions(rho: Representation) -> dict:
    """Triangularity of all images plus the two structural conditions."""
    supports = [block_support(im) for im in rho.images]
    report, witnesses = _structure_conditions(
        supports,
        [(s, supports[s]) for s in rho.levi.levi_indices],
        rho.levi.nilrad_indices,
    )
    report["all_pass"] = all(report.values())
    report["witnesses"] = witnesses
    return report


def kernel(rho: Representation) -> list[Vector]:
    """Basis of {x : sum_i x_i rho(b_i) = 0}; faithful iff empty.

    The system has one equation per stored (r, c) position, naming the
    images that store it. An equation naming one image forces that
    coefficient to 0, so the column is dropped. The equations naming
    two or more images, over the live columns, are eliminated; there a
    row left with one live entry is that column's pivot row, so any
    further singletons drop in the elimination. Every kernel vector is
    0 on a dropped column, so the free columns and the rref basis
    vectors are those of the whole system."""
    equations: dict[tuple[int, int], dict] = {}
    for k, im in enumerate(rho.images):
        for r, row in im.matrix.maps.items():
            for c, x in row.items():
                equations.setdefault((r, c), {})[k] = x
    dropped: set[int] = set()
    shared = []
    for eq in equations.values():
        if len(eq) == 1:
            dropped.update(eq)
        else:
            shared.append(eq)
    n = len(rho.images)
    live = [k for k in range(n) if k not in dropped]
    column = {k: i for i, k in enumerate(live)}
    residue = {}
    for eq in shared:
        row = {column[k]: x for k, x in eq.items() if k in column}
        if row:
            residue[len(residue)] = row
    if not residue:
        # nothing left to solve: each live column is a kernel vector
        return [unit_vector(n, k) for k in live]
    basis = []
    for v in nullspace_basis(RatMatrix._from_maps(len(residue), len(live), residue)):
        lifted = [ZERO] * n
        for k, x in zip(live, v):
            lifted[k] = x
        basis.append(tuple(lifted))
    return basis


def recognize_sl2(L: LieAlgebra, levi_indices: Sequence[int]) -> tuple[Vector, Vector, Vector]:
    """Normalize a 3-dimensional Levi factor to an (F, H, E) triple with
    [H,E] = 2E, [H,F] = -2F, [E,F] = H; raises UnsupportedLeviError when
    no basis element acts with eigenvalues {2, 0, -2}.

    Candidates h = b_g are tried in Levi order; m is ad(h) on the Levi
    span, once `liealg.span_escape` finds it closed. Column g of m is
    [h, h] = 0, so its characteristic polynomial is x³ - tr(m) x² + s x
    with s the sum of its principal 2×2 minors, and m has the three
    distinct eigenvalues 2, 0, -2 exactly when tr(m) = 0 and s = -4.
    Only then are the eigenspaces of m - 2I and m + 2I computed: both
    are lines, and their vectors e and f satisfy [h, e] = 2e and
    [h, f] = -2f in the ambient algebra, and so does e / c for any c.
    Only [e, f] = c h is left: it follows from Jacobi, which is not
    assumed, so it is the one bracket computed (c is the h-coordinate of
    [e, f]), by `liealg.bracket` from the stored brackets."""
    idx = list(levi_indices)
    if len(idx) != 3:
        raise UnsupportedLeviError(
            f"irreducibility test supports only 3-dimensional Levi factors, got {len(idx)}"
        )
    if span_escape(L, idx) is not None:
        raise UnsupportedLeviError("Levi span not closed")
    ads = restricted_ad_matrices(L, idx)

    def to_ambient(v) -> Vector:
        out = [ZERO] * L.dim
        for p, c in enumerate(v):
            out[idx[p]] += c
        return tuple(out)

    two = RatMatrix.diagonal((2, 2, 2))
    for g, m in zip(idx, ads):
        a = [m.row(p) for p in range(3)]
        minors = sum(a[p][p] * a[q][q] - a[p][q] * a[q][p]
                     for p, q in ((0, 1), (0, 2), (1, 2)))
        if a[0][0] + a[1][1] + a[2][2] != 0 or minors != -4:
            continue
        (e,), (f,) = nullspace_basis(m - two), nullspace_basis(m + two)
        e, f = to_ambient(e), to_ambient(f)
        ef = bracket(L, e, f)
        scal = ef[g]
        if not scal or ef.count(ZERO) != L.dim - 1:
            continue
        return f, unit_vector(L.dim, g), tuple(x / scal for x in e)
    raise UnsupportedLeviError(
        "no Levi basis element acts with eigenvalues {2, 0, -2}"
    )


def is_k_irreducible(
    rho: Representation, e_kernel_dims: list[int] | None = None
) -> list[bool]:
    """Per grading component: is it an irreducible module under the
    Levi action? Zero-dimensional components are vacuously fine.

    Requires that rho is a homomorphism and that condition (i) holds, so
    that each V_k is a module for the triple (f, h, e) of
    `recognize_sl2`. Over Q such a module is a direct sum of
    irreducibles (Weyl; Humphreys §6.3), each with a 1-dimensional
    e-kernel (Humphreys §7.2), so V_k is irreducible iff
    rank(rho(e)_kk) = d_k - 1: one rank per nonzero component, and the
    image of h is never needed. When `e_kernel_dims` is a list, d_k -
    rank(rho(e)_kk), the number of irreducible summands, is appended to
    it for each component."""
    _, _, e_amb = recognize_sl2(rho.algebra, rho.levi.levi_indices)
    e_map = rho.image_of(e_amb)
    kernels = [
        d - rank(e_map.block(k, k)) if d else 0
        for k, d in enumerate(rho.space.component_dims)
    ]
    if e_kernel_dims is not None:
        e_kernel_dims.extend(kernels)
    return [d == 0 or n == 1 for d, n in zip(rho.space.component_dims, kernels)]


def _irreducibility(report: dict, rho: Representation) -> tuple[list[bool] | None, object]:
    """(`is_k_irreducible` where it means something, else None; a witness
    or None). The witness names the failed precondition, or the
    unsupported Levi factor, or each reducible component with its
    e-kernel dimension. Passing reports carry no witness."""
    for field in ("homomorphism", "condition_i"):
        if not report[field]:
            return None, f"{field} fails, so the components are not Levi modules"
    kernels: list[int] = []
    try:
        irr = is_k_irreducible(rho, kernels)
    except UnsupportedLeviError as exc:
        return None, str(exc)
    reducible = [
        {"component": k, "dim": d, "e_kernel_dim": n}
        for k, (d, n, ok) in enumerate(zip(rho.space.component_dims, kernels, irr))
        if not ok
    ]
    return irr, reducible or None


def verify_representation(rho: Representation) -> dict:
    """Full report: homomorphism, triangular conditions, faithfulness,
    per-component irreducibility, and the gate `all_pass`.

    `all_pass` requires the homomorphism, triangularity and conditions
    (i)/(ii), plus irreducibility of every component when the Levi
    factor is a recognized sl2. `irreducible_components` is None when
    the homomorphism or condition (i) fails (no component is then a
    Levi module) or when the Levi factor is not a recognized sl2; either
    way the witness says why. Faithfulness is informational."""
    hom_ok, hom_witness = verify_homomorphism(rho)
    tri = verify_triangular_conditions(rho)
    ker = kernel(rho)
    report = {
        "homomorphism": hom_ok,
        "triangular_all": tri["triangular_all"],
        "condition_i": tri["condition_i"],
        "condition_ii": tri["condition_ii"],
        "faithful": not ker,
        "witnesses": dict(tri["witnesses"]),
    }
    if hom_witness is not None:
        report["witnesses"]["homomorphism"] = hom_witness
    if ker:
        report["witnesses"]["faithful"] = ker[0]
    irr, irr_witness = _irreducibility(report, rho)
    if irr_witness is not None:
        report["witnesses"]["irreducibility"] = irr_witness
    report["irreducible_components"] = irr
    report["all_pass"] = (
        hom_ok and tri["all_pass"] and (irr is None or all(irr))
    )
    return report


def conjugate_levi_check(rho: Representation, z: Sequence) -> dict:
    """Re-verify the triangular-representation conditions after moving
    the Levi factor by exp(ad z) and the grading by exp(rho(z)).

    The regraded component V'_k = exp(rho(z))(V_k) turns every check
    into a conjugated-matrix check: an image is degree-j homogeneous in
    the new grading iff P^{-1} (image) P is in the old one, with
    P = exp(rho(z)).
    """
    L = rho.algebra
    z = vector(z)
    try:
        exp_ad = exp_nilpotent(ad_matrix(L, z))
    except ValueError:
        raise ValueError("ad(z) is not nilpotent; conjugation undefined")
    # P = I + N/E and P^-1 = I + N'/E, so P P^-1 = I reads E(N + N') + N N' = 0
    e, n, n_inv = exp_nilpotent_rows(rho.image_of(z).matrix)
    identity_defect: dict = {}
    add_product(identity_defect, n, n_inv, 1)
    add_scaled_rows(identity_defect, n, e)
    add_scaled_rows(identity_defect, n_inv, e)
    assert not identity_defect

    def conjugated_support(rows: dict) -> set:
        # E² P^-1 M P = (E M + N'M)(E I + N) for integer rows M: only the
        # nilpotent parts are multiplied
        left, out = {}, {}
        add_product(left, n_inv, rows, 1)
        add_scaled_rows(left, rows, e)
        add_product(out, left, n, 1)
        add_scaled_rows(out, left, e)
        return row_support(rho.space, out)

    scaled = [integral_rows(im.matrix) for im in rho.images]
    columns = exp_ad.transpose()
    levi_supports = []
    for s in rho.levi.levi_indices:
        # exp(ad z) b_s is column s of exp(ad z), and P^-1 rho(v) P is
        # linear in v: the moved image is the column's combination of the
        # images, cleared by the lcm of its weights' denominators
        weights = [(c / scaled[t][0], scaled[t][1]) for t, c in columns.maps[s].items()]
        lcd = math.lcm(*(w.denominator for w, _ in weights))
        combined: dict = {}
        for w, rows in weights:
            add_scaled_rows(combined, rows, w.numerator * (lcd // w.denominator))
        levi_supports.append((s, conjugated_support(combined)))
    report, witnesses = _structure_conditions(
        [conjugated_support(rows) for _, rows in scaled],
        levi_supports,
        rho.levi.nilrad_indices,
    )
    report["conjugated_levi_basis"] = tuple(columns.row(s) for s in rho.levi.levi_indices)
    report["all_pass"] = (
        report["triangular_all"] and report["condition_i"] and report["condition_ii"]
    )
    if witnesses:
        report["witnesses"] = witnesses
    return report

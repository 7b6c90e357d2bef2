"""Lie algebras given by structure constants.

Algebras carry an explicit basis and a sparse bracket table stored for
index pairs i < j only, so antisymmetry holds by construction; the table
is read-only, validated once at construction. A LeviData record
*declares* a decomposition into a semisimple part and a (solvable)
radical with its nilradical; the declaration is verified check by check
rather than computed, since every algebra handled here arrives with its
decomposition spelled out. `LeviData.check` is the one range check of
its indices: `rep.Representation`, `verify_levi_data` and
`adjoint_grading` call it before reading any index.

The grading construction splits the algebra along the nilradical's
lower central series: degree 0 holds the Levi part plus the radical's
basis elements outside the nilradical, and each positive degree holds a
section of N^k/N^{k+1} made invariant under the Levi action by solving
a commuting-projector system. A grading is just its per-degree bases:
the size of a degree's basis is that degree's dimension.

Spans (the terms of both series, and the layers a section is cut from)
are kept as the rref row maps of a RatMatrix. With R_i = L.ad_rows[i],
the matrix whose row j is [b_i, b_j], built once per algebra, [b_i, S]
is spanned by the rows of the one sparse product S @ R_i; dense tuples
appear only in the public return values; `bracket` sums the stored
brackets over the nonzero coordinates of x and y. Both series start
from a span of basis indices, shown to be an ideal by one scan of the
table, so the first term's ad matrices are the R_i, and its first step
reads the stored keys with both indices inside the span, with no
product. That scan reads the stored bracket keys with an index in the
span, and walks the caller's index pairs only to name the first escape,
so a passing check costs the stored brackets. Levi closure, wherever it
is asked, is `span_escape`, that scan over the span's pairs i < j,
reading only the keys with both indices inside, and its Killing form is
summed from the stored brackets with no product. The adjoint
representation changes basis through the stored entries of the graded
basis vectors.

`check_axioms` sums each Jacobi triple from the stored brackets alone,
so it too costs the stored brackets, not dim³. One defect scan,
`bracket_defect`, decides whether b_i ↦ M_i respects brackets, for
representations. Both read only zero patterns, which a positive scale
keeps, so both run on integer row maps: Jacobi with one denominator per
stored bracket, the defect scan with one per image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .exact import (
    ONE,
    ZERO,
    RatMatrix,
    ShapeError,
    Vector,
    add_product,
    add_scaled_row,
    add_scaled_rows,
    combination,
    integral_rows,
    invert,
    rank,
    rat,
    rref,
    solve,
    sylvester_system,
    unit_vector,
    vector,
)
from .sl2theory import string_action


class LieAlgebra:
    """dim, basis labels, the sparse bracket table [b_i, b_j] (i < j) as a
    read-only mapping, and ad_rows: row j of ad_rows[i] is [b_i, b_j],
    stored for the stored brackets alone, two rows each."""

    __slots__ = ("dim", "basis_labels", "structure", "ad_rows")

    def __init__(
        self,
        dim: int,
        basis_labels: Sequence[str],
        structure: Mapping[tuple[int, int], Mapping[int, object]],
    ):
        if len(basis_labels) != dim:
            raise ValueError("label count does not match dim")
        if len(set(basis_labels)) != dim:
            # representations key their images by label
            raise ValueError(f"duplicate basis labels in {list(basis_labels)}")
        self.dim = dim
        self.basis_labels = tuple(basis_labels)
        table: dict[tuple[int, int], Mapping[int, Fraction]] = {}
        rows: dict[int, dict[int, dict]] = {}
        for (i, j), coeffs in structure.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"bracket indices ({i}, {j}) out of range")
            if i >= j:
                raise ValueError(
                    f"store brackets for i < j only, got ({i}, {j})"
                )
            cleaned = {k: q for k, c in coeffs.items() if (q := rat(c))}
            for k in cleaned:
                if not 0 <= k < dim:
                    raise ValueError(f"bracket target index {k} out of range")
            if cleaned:
                table[(i, j)] = MappingProxyType(cleaned)
                rows.setdefault(i, {})[j] = cleaned
                rows.setdefault(j, {})[i] = {k: -c for k, c in cleaned.items()}
        self.structure = MappingProxyType(table)
        # indices in no bracket share one zero matrix: an object each took
        # 2.3 s and 140 MB more at dim 10^6 with no brackets
        zero = RatMatrix.zeros(dim, dim)
        self.ad_rows = tuple(
            RatMatrix._from_maps(dim, dim, rows[a]) if a in rows else zero
            for a in range(dim)
        )

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, labels={self.basis_labels})"


@dataclass(frozen=True)
class LeviData:
    """Declared decomposition: Levi factor, radical, and nilradical."""

    levi_indices: tuple[int, ...]
    radical_indices: tuple[int, ...]
    nilrad_indices: tuple[int, ...]

    def check(self, dim: int) -> None:
        """The one range check of a declaration: raise IndexError naming
        the first index outside 0..dim-1, nilradical first, then
        radical, then Levi."""
        for indices in (self.nilrad_indices, self.radical_indices, self.levi_indices):
            for i in indices:
                if not 0 <= i < dim:
                    raise IndexError(f"unit vector index {i} out of range for dim {dim}")


@dataclass(frozen=True)
class GradingAssignment:
    """Graded basis for an algebra, one basis per degree; the graded
    basis lists them in ascending degree."""

    component_bases: tuple[tuple[Vector, ...], ...]
    levi: LeviData = field(compare=False)

    def graded_basis(self) -> list[Vector]:
        return [v for comp in self.component_bases for v in comp]


def bracket(L: LieAlgebra, x: Sequence, y: Sequence) -> Vector:
    """[x, y], the bilinear extension of the structure constants: the sum
    of x_i y_j [b_i, b_j] over the nonzero coordinates of x and y, read
    from the stored brackets (row j of ad_rows[i] is [b_i, b_j])."""
    x, y = vector(x), vector(y)
    if len(x) != L.dim or len(y) != L.dim:
        raise ValueError("vector length does not match algebra dim")
    ys = [(j, b) for j, b in enumerate(y) if b]
    out: dict = {}
    for i, a in enumerate(x):
        if a:
            rows = L.ad_rows[i].maps
            for j, b in ys:
                if j in rows:
                    add_scaled_row(out, rows[j], a * b)
    return tuple(out.get(k, ZERO) for k in range(L.dim))


def ad_matrix(L: LieAlgebra, x: Sequence) -> RatMatrix:
    """Matrix of ad(x): y ↦ [x, y] in the algebra's own basis; column j
    holds [x, b_j] = sum_i x_i [b_i, b_j]."""
    x = vector(x)
    if len(x) != L.dim:
        raise ValueError("vector length does not match algebra dim")
    return combination(L.ad_rows, enumerate(x)).transpose()


def bracket_defect(L: LieAlgebra, images: Iterable[RatMatrix]) -> tuple[int, int, int] | None:
    """The first pair i < j, with the least column k, where images[i]
    images[j] - images[j] images[i] - sum_p c_ij^p images[p] is nonzero;
    None when b_i ↦ images[i] respects every bracket.

    Summed on integer row maps, one denominator per image: with
    N_i = d_i images[i] (`integral_rows`), the pair's sum is
        E (N_i N_j - N_j N_i) - sum_p E w_p N_p,  w_p = c_ij^p d_i d_j / d_p,
    where E is the lcm of the w_p denominators: d_i d_j E times the
    defect, so it has the same zero pattern. It is summed by
    `add_product` and `add_scaled_rows`, which visit only stored
    entries and drop a row that cancels; no matrix is built, and no
    Fraction either. Every product with a zero images[i] vanishes: only
    its stored partners j > i can fail."""
    scaled = [integral_rows(m) for m in images]
    partners: dict[int, list[int]] = {}
    for i, j in sorted(L.structure):
        partners.setdefault(i, []).append(j)
    for i in range(L.dim):
        d_i, a = scaled[i]
        coeffs = L.ad_rows[i].maps
        for j in range(i + 1, L.dim) if a else partners.get(i, ()):
            d_j, b = scaled[j]
            # each w_p as (numerator, denominator) in lowest terms
            terms, e = [], 1
            for p, c in coeffs.get(j, {}).items():
                d_p, rows_p = scaled[p]
                if rows_p:
                    num, den = c.numerator * d_i * d_j, c.denominator * d_p
                    g = math.gcd(num, den)
                    terms.append((num // g, den // g, rows_p))
                    e = math.lcm(e, den // g)
            acc: dict = {}
            add_product(acc, a, b, e)
            add_product(acc, b, a, -e)
            for num, den, rows_p in terms:
                add_scaled_rows(acc, rows_p, -num * (e // den))
            if acc:
                return i, j, min(k for row in acc.values() for k in row)
    return None


def check_axioms(L: LieAlgebra) -> dict:
    """Jacobi from the stored triples; the witness is the
    lexicographically first triple i < j < k whose Jacobi sum
    J(i, j, k) = [[b_i, b_j], b_k] + [[b_j, b_k], b_i] + [[b_k, b_i], b_j]
    is nonzero.

    Brackets are stored for i < j only and [b_j, b_i] is read back as
    -[b_i, b_j], so J is alternating, and J(i, j, k) is the sum of the
    three terms [[b_u, b_v], b_w] over its pairs u < v, each with a
    sign. Such a term is nonzero only if (u, v) is stored and some b_p
    in [b_u, b_v] has [b_p, b_w] stored. So each stored pair (a, b),
    each of its terms c b_p, and each x outside {a, b} with [b_p, b_x]
    stored adds ±c [b_p, b_x] to J of the sorted triple: + when x > b
    (J(a, b, x) starts with it) or x < a (J(x, a, b) has it second),
    - when a < x < b (J(a, x, b) has [[b_b, b_a], b_x]). A triple no
    walk reaches has J = 0; the cost is the stored brackets, not dim³.

    Only zero patterns are read, and a positive scale keeps them, so
    each stored bracket is cleared once by its own denominator,
    [b_u, b_v] = N_uv / d_uv, and a triple keeps one integer sum per
    term denominator d_ab d_px; only a triple with two or more such sums
    is brought to their lcm. Antisymmetry holds by construction; it is
    reported true with a None witness."""
    cleared = {}  # (u, v) -> (d_uv, N_uv)
    partners: dict[int, list] = {}  # p -> each (x, ±1, d, N) with [b_p, b_x] = ±N/d
    for (i, j), coeffs in L.structure.items():
        d = math.lcm(*(c.denominator for c in coeffs.values()))
        row = {k: c.numerator * (d // c.denominator) for k, c in coeffs.items()}
        cleared[i, j] = d, row
        partners.setdefault(i, []).append((j, 1, d, row))
        partners.setdefault(j, []).append((i, -1, d, row))
    sums: dict[tuple[int, int, int], dict[int, dict]] = {}  # triple -> {denominator: sum}
    for (a, b), (d_ab, coeffs) in cleared.items():
        for p, c in coeffs.items():
            for x, sign, d_px, row in partners.get(p, ()):
                if x > b:
                    triple, w = (a, b, x), c
                elif x < a:
                    triple, w = (x, a, b), c
                elif a < x < b:
                    triple, w = (a, x, b), -c
                else:
                    continue
                terms = sums.setdefault(triple, {})
                add_scaled_row(terms.setdefault(d_ab * d_px, {}), row, sign * w)

    def nonzero(terms: dict[int, dict]) -> bool:
        if len(terms) == 1:
            return any(terms.values())
        lcd, total = math.lcm(*terms), {}
        for d, acc in terms.items():
            add_scaled_row(total, acc, lcd // d)
        return bool(total)

    jacobi_witness = min((t for t, terms in sums.items() if nonzero(terms)), default=None)
    return {
        "antisymmetry": True,
        "jacobi": jacobi_witness is None,
        "witnesses": {"antisymmetry": None, "jacobi": jacobi_witness},
        "all_pass": jacobi_witness is None,
    }


# the sl2 brackets on basis (f, h, e), stored for i < j
_SL2_STRUCTURE = {
    (0, 1): {0: 2},      # [f, h] = 2f
    (0, 2): {1: -1},     # [f, e] = -h
    (1, 2): {2: 2},      # [h, e] = 2e
}


def build_sl2() -> tuple[LieAlgebra, LeviData]:
    """The 3-dimensional simple algebra on basis (f, h, e)."""
    L = LieAlgebra(3, ("f", "h", "e"), _SL2_STRUCTURE)
    return L, LeviData((0, 1, 2), (), ())


def lambda_error(lam: int) -> str | None:
    """The one text of the Λ >= 1 check, or None when Λ passes it."""
    return f"lam must be >= 1, got {lam}" if lam < 1 else None


def build_sl2_lambda(lam: int) -> tuple[LieAlgebra, LeviData]:
    """sl2 extended by an abelian ideal spanned by z_0 … z_lam, the
    highest-weight-(lam) module under the adjoint-style action:

        [h, z_j] = (lam - 2j) z_j,  [f, z_j] = z_{j+1},
        [e, z_j] = j (lam - j + 1) z_{j-1},  [z_j, z_j'] = 0,

    with z_j := 0 outside 0..lam. Basis order (f, h, e, z_0, …, z_lam).
    [b_g, z_j] is column j of b_g's action on the string x_0 … x_lam
    (`sl2theory.string_action`).
    """
    if lam_error := lambda_error(lam):
        raise ValueError(lam_error)
    labels = ["f", "h", "e"] + [f"z{j}" for j in range(lam + 1)]
    columns = [image.transpose().maps for image in string_action(lam, lam)]
    structure = dict(_SL2_STRUCTURE)
    for j in range(lam + 1):
        for g, cols in enumerate(columns):
            if j in cols:
                structure[(g, 3 + j)] = {3 + k: x for k, x in cols[j].items()}
    L = LieAlgebra(lam + 4, labels, structure)
    levi = LeviData((0, 1, 2), tuple(range(3, lam + 4)), tuple(range(3, lam + 4)))
    return L, levi


def _index_escape(L: LieAlgebra, pairs: Iterable[tuple[int, int]],
                  span: Sequence[int], within: bool = False) -> tuple[int, int, int] | None:
    """The first (i, j, k), over the pairs in order and k ascending, for
    which [b_i, b_j] has a b_k term with k outside `span`; None if none.
    Every pair must have an index in `span`, and with `within` both.

    Decided from the stored brackets: each key the pairs can name (an
    index in the span, or with `within` both) that has a term outside it
    keeps its least such k. When there is none the pairs are not walked;
    otherwise the first pair with such a key names the witness. Unstored
    pairs pass."""
    inside = set(span)
    escapes = {}
    for (a, b), coeffs in L.structure.items():
        if (a in inside and b in inside) if within else (a in inside or b in inside):
            outside = [k for k in coeffs if k not in inside]
            if outside:
                escapes[a, b] = min(outside)
    if not escapes:
        return None
    for i, j in pairs:
        k = escapes.get((i, j) if i < j else (j, i))
        if k is not None:
            return i, j, k
    return None


def span_escape(L: LieAlgebra, indices: Sequence[int]) -> tuple[int, int, int] | None:
    """The first bracket of two listed basis elements that leaves their
    span: the first (i, j, k), over the pairs i < j in list order and k
    ascending, for which [b_i, b_j] has a b_k term with k outside it;
    None when span{b_g : g in indices} is closed under the bracket.
    It is the `_index_escape` scan over the span's own pairs, which can
    name only keys with both indices in the span, so a closed span costs
    the stored brackets and walks no pair."""
    idx = list(indices)
    return _index_escape(L, ((i, j) for i in idx for j in idx if i < j), idx, within=True)


def restricted_ad_matrices(L: LieAlgebra, indices: Sequence[int]) -> list[RatMatrix]:
    """ad(b_g) restricted to span{b_g : g in indices}, one matrix per
    index in the local basis order, b_k at the last position of k in the
    list. The span must be closed (`span_escape`)."""
    idx = list(indices)
    m = len(idx)
    pos = {g: p for p, g in enumerate(idx)}
    ads = []
    for g in idx:
        r_g = L.ad_rows[g].maps
        maps: dict[int, dict] = {}
        for q, g2 in enumerate(idx):
            for k, c in r_g.get(g2, {}).items():
                maps.setdefault(pos[k], {})[q] = c
        ads.append(RatMatrix._from_maps(m, m, maps))
    return ads


def _subalgebra_killing_rank(L: LieAlgebra, indices: Sequence[int]) -> int:
    """Rank of the Killing form of the subalgebra spanned by the given
    basis indices, computed intrinsically; the span must be closed. A
    repeated index would repeat a row and a column, which leaves the
    rank alone, so each index is taken once, row p keeping column q at q.

    tr(ad b_p ad b_q) on the span sums [b_p, b_b]_a [b_q, b_a]_b over its
    a, b: each stored entry [b_p, b_b]_a meets the stored entries at
    (b, a), so no matrix is built or multiplied, and the cost is at most
    |span| times the stored brackets inside the span."""
    inside = set(indices)
    # (a, b) -> each (p, [b_p, b_b]_a), over the stored pairs in the span
    at: dict[tuple[int, int], list] = {}
    for i, j in L.structure:
        if i in inside and j in inside:
            for p, b in ((i, j), (j, i)):
                for a, c in L.ad_rows[p].maps[b].items():
                    at.setdefault((a, b), []).append((p, c))
    kappa: dict[int, dict] = {p: {} for p in inside}
    for (a, b), left in at.items():
        for q, y in at.get((b, a), ()):
            for p, x in left:
                kappa[p][q] = kappa[p].get(q, 0) + x * y
    rows = {p: nonzero for p, row in kappa.items()
            if (nonzero := {q: v for q, v in row.items() if v})}
    return rank(RatMatrix._from_maps(L.dim, L.dim, rows))


def _series(L: LieAlgebra, indices: Sequence[int], lower: bool) -> list[RatMatrix]:
    """The derived series of span{b_i : i in indices}, or its lower
    central series when `lower`, as rref row maps; the first term is the
    distinct unit rows in ascending order, with ad matrices L.ad_rows.

    Precondition: the span is an ideal, which callers check by an
    `_index_escape` scan. Then each term lies in the one before, so the
    series ends within dim steps. The first step, [S, S] for both
    series, is spanned by the [b_i, b_j] with i < j in the span: the
    stored keys inside it, read without a product."""
    inside = set(indices)
    first = RatMatrix._from_maps(
        len(inside), L.dim, {p: {i: ONE} for p, i in enumerate(sorted(inside))}
    )
    rows = [L.ad_rows[i].maps[j] for i, j in L.structure if i in inside and j in inside]
    ads = [L.ad_rows[i] for i in sorted(inside)]
    series = [first]
    while True:
        # the rref rows of the span: equal spans give equal matrices
        reduced, pivots = rref(RatMatrix._from_maps(len(rows), L.dim, dict(enumerate(rows))))
        nxt = RatMatrix._from_maps(len(pivots), L.dim, reduced.maps)
        if nxt == series[-1]:
            return series
        series.append(nxt)
        if not nxt.rows:
            return series
        if not lower:
            ads = [combination(L.ad_rows, a.items()) for a in nxt.maps.values()]
        # [a, v_p] for the rows v_p of the last term, a running over
        # first (lower) or over the last term (derived)
        rows = [row for ad in ads for row in (nxt @ ad).maps.values()]


def verify_levi_data(L: LieAlgebra, D: LeviData) -> dict:
    """Run the five declaration checks; failures carry witnesses."""
    D.check(L.dim)
    witnesses: dict = {}

    levi = list(D.levi_indices)
    radical = list(D.radical_indices)
    nilrad = list(D.nilrad_indices)
    all_indices = sorted(levi + radical)
    partition = (
        all_indices == list(range(L.dim))
        and not (set(levi) & set(radical))
        and set(nilrad) <= set(radical)
    )
    if not partition:
        witnesses["partition"] = {
            "levi": levi, "radical": radical, "nilradical": nilrad
        }

    w = span_escape(L, levi)
    if w is not None:
        witnesses["levi_closed"] = w
    killing_ok = w is None and _subalgebra_killing_rank(L, levi) == len(levi)
    if not killing_ok:
        witnesses["levi_killing_nondegenerate"] = "rank deficient"

    report = {
        "partition": partition,
        "levi_closed": w is None,
        "levi_killing_nondegenerate": killing_ok,
    }
    # an index span is an ideal iff every [b_i, b_j], j in it, stays in
    # it, so each series runs with its precondition met
    for key, span, lower, stuck in (
        ("radical_solvable_ideal", radical, False, "derived series stabilizes nonzero"),
        ("nilradical_nilpotent_ideal", nilrad, True,
         "lower central series stabilizes nonzero"),
    ):
        w = _index_escape(L, ((i, j) for i in range(L.dim) for j in span), span)
        if w is None and _series(L, span, lower)[-1].rows:
            w = stuck
        report[key] = w is None
        if w is not None:
            witnesses[key] = w
    report["all_pass"] = all(report.values())
    report["witnesses"] = witnesses
    return report


def _levi_invariant_section(
    action: Sequence[RatMatrix], cur: RatMatrix, sub: RatMatrix
) -> list[Vector]:
    """Complement of span(sub) inside span(cur), invariant under each
    Levi action matrix a, acting on row vectors as v ↦ v @ a.

    In a basis of cur adapted to sub, each a is block triangular
    [[A_s, B_s], [0, C_s]]; a projector onto sub commuting with all of
    them has the form [[I, X], [0, 0]] with A_s X - X C_s = B_s for all
    s, and its kernel is the section. In characteristic 0 the stacked
    system is always consistent (complete reducibility); inconsistency
    is reported, not papered over.
    """
    r, width = sub.rows, sub.rows + cur.rows
    # one elimination of the columns [sub | cur | sub @ a | cur @ a for
    # every a]: sub is independent, so the pivots are sub followed by
    # the rows ext of cur that extend it (sub + ext is the adapted basis),
    # and each image's reduced column holds its adapted coordinates
    rows = {**sub.maps, **{r + q: row for q, row in cur.maps.items()}}
    vectors = RatMatrix._from_maps(width, cur.cols, dict(rows))
    for s, a in enumerate(action, 1):
        # rows width*s onwards hold vectors @ action[s - 1]
        rows.update((width * s + q, row) for q, row in (vectors @ a).maps.items())
    columns = RatMatrix._from_maps(width * (len(action) + 1), cur.cols, rows).transpose()
    reduced, pivots = rref(columns)
    ext = [p - r for p in pivots if r <= p < width]
    if not ext:
        return []
    c = len(ext)
    k = r + c
    if len(pivots) > k:
        raise RuntimeError("vector not in claimed span")
    ext_rows = RatMatrix._from_maps(c, cur.cols, {p: cur.maps[q] for p, q in enumerate(ext)})
    if r == 0:
        # no deeper layer to project away: ext spans the section
        return [ext_rows.row(q) for q in range(c)]
    adapted = list(range(r)) + [r + q for q in ext]
    systems, rhs = [], []
    for idx in range(len(action)):
        base = width * (idx + 1)
        m = reduced.submatrix(range(k), [base + j for j in adapted])
        for q in range(r):
            for p in range(r, r + c):
                assert m[p, q] == 0, "the Levi action must preserve the deeper layer"
        a = m.submatrix(range(r), range(r))
        cc = m.submatrix(range(r, r + c), range(r, r + c))
        systems.append(sylvester_system(a, cc))
        rhs.extend(m[p, q] for p in range(r) for q in range(r, r + c))
    n = r * c
    system = RatMatrix.from_blocks(
        len(systems) * n, n, [(i * n, 0, sy) for i, sy in enumerate(systems)]
    )
    x = solve(system, rhs)
    if x is None:
        raise RuntimeError(
            "invariant-section system inconsistent; no commuting projector"
        )
    # section vector q is ext_q - sum_p X[p, q] sub_p, X = x as r x c
    section = ext_rows - RatMatrix(r, c, x).transpose() @ sub
    return [section.row(q) for q in range(c)]


def adjoint_grading(L: LieAlgebra, D: LeviData) -> GradingAssignment:
    """Grade the algebra by the nilradical's lower central series.

    Degree 0 = Levi span plus a complement of the nilradical inside the
    radical: the radical's unit vectors outside the nilradical, each
    once, in first-seen order; degree k >= 1 = a Levi-invariant section
    of N^k / N^{k+1}.
    """
    D.check(L.dim)
    nilrad = sorted(set(D.nilrad_indices))
    complement = [
        unit_vector(L.dim, i)
        for i in dict.fromkeys(D.radical_indices)
        if i not in nilrad
    ]
    v0 = [unit_vector(L.dim, i) for i in D.levi_indices] + complement

    # the series' ideal precondition, scanned over v = b_j (j ascending),
    # then b_i (i ascending): the error names the first [b_i, v] that
    # leaves the span
    w = _index_escape(L, ((i, j) for j in nilrad for i in range(L.dim)), nilrad)
    if w is not None:
        i, j, _ = w
        raise ValueError(
            f"input span is not an ideal: [b_{i}, v] escapes for v={unit_vector(L.dim, j)}"
        )
    series = _series(L, nilrad, lower=True)
    action = [L.ad_rows[s] for s in D.levi_indices]  # b_j ↦ [b_s, b_j]
    components: list[list[Vector]] = [v0] + [
        _levi_invariant_section(action, series[k], series[k + 1])
        for k in range(len(series) - 1)
    ]
    if len(components) == 1 and not components[0]:
        raise ValueError("empty grading")

    flat = [v for comp in components for v in comp]
    # the check's matrix holds the stored entries only, not dim² coercions
    maps = {p: row for p, v in enumerate(flat)
            if (row := {j: x for j, x in enumerate(v) if x})}
    if len(flat) != L.dim or rank(RatMatrix._from_maps(len(flat), L.dim, maps)) != L.dim:
        raise RuntimeError("graded components do not form a basis")
    return GradingAssignment(tuple(tuple(comp) for comp in components), levi=D)


def adjoint_representation(L: LieAlgebra, G: GradingAssignment):
    """ad in the graded basis order, packaged for the rep checks."""
    from .graded import GradedSpace
    from .rep import Representation

    # row j of q holds the stored entries of basis vector v_j, so row j
    # of q @ R_i is [b_i, v_j], and ad(b_i) in the graded basis is
    # P^-1 (q @ R_i)^T with P = q^T; a unit row shares R_i's row
    rows = []
    for v in G.graded_basis():
        if len(v) != L.dim:
            raise ShapeError(f"basis vector of length {len(v)} for dim {L.dim}")
        rows.append({j: c for j, x in compress(enumerate(v), v) if (c := rat(x))})
    q = RatMatrix._from_maps(len(rows), L.dim, {p: row for p, row in enumerate(rows) if row})
    p_inv = invert(q.transpose())
    images = [p_inv @ (q @ r_i).transpose() for r_i in L.ad_rows]
    space = GradedSpace(tuple(len(c) for c in G.component_bases))
    return Representation(L, G.levi, space, tuple(images))

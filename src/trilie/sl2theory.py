"""Standard sl2 machinery over exact rationals.

Irreducible modules in the lowering-operator basis convention
(f walks down the weight string, e walks back up with integer
coefficients), exact weight decompositions, and Clebsch-Gordan
multiplicities by character counting, with the tensor weights counted
in closed form. The latter serves as an oracle that is independent of
any matrix construction elsewhere in the package. Irreducibility of a
module is decided by the verification gate, `rep.is_k_irreducible`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import RatMatrix, commutator, rank


@dataclass(frozen=True)
class Sl2Module:
    highest_weight: int
    f_mat: RatMatrix
    h_mat: RatMatrix
    e_mat: RatMatrix

    @property
    def dim(self) -> int:
        return self.highest_weight + 1


def string_action(d: int, e_top: int) -> tuple[RatMatrix, RatMatrix, RatMatrix]:
    """Unchecked (f, h, e) on a string x_0 … x_d: h·x_i = (d-2i)x_i,
    f·x_i = x_{i+1}, e·x_i = i(e_top-i+1)x_{i-1}. Only e_top = d gives
    an sl2 module; other values serve fidelity experiments."""
    n = d + 1
    f = {i: {i - 1: 1} for i in range(1, n)}
    e = {i - 1: {i: c} for i in range(1, n) if (c := i * (e_top - i + 1))}
    h = RatMatrix.diagonal([d - 2 * i for i in range(n)])
    return RatMatrix._from_maps(n, n, f), h, RatMatrix._from_maps(n, n, e)


def build_irreducible(d: int) -> Sl2Module:
    """The (d+1)-dimensional irreducible on basis (x_0 … x_d):
    h·x_i = (d-2i)x_i, f·x_i = x_{i+1}, e·x_i = i(d-i+1)x_{i-1}."""
    if d < 0:
        raise ValueError(f"highest weight must be nonnegative, got {d}")
    f, h, e = string_action(d, d)
    _require_sl2_relations(f, h, e)
    return Sl2Module(d, f, h, e)


def _require_sl2_relations(f: RatMatrix, h: RatMatrix, e: RatMatrix) -> None:
    if commutator(h, e) != e.scale(2):
        raise ValueError("[h, e] = 2e violated")
    if commutator(h, f) != f.scale(-2):
        raise ValueError("[h, f] = -2f violated")
    if commutator(e, f) != h:
        raise ValueError("[e, f] = h violated")


def weight_decomposition(h: RatMatrix) -> dict[int, int]:
    """Integer eigenvalue → eigenspace dimension for a diagonalizable
    h-action; rejects non-integer or defective actions.

    Candidate weights are scanned inside the Gershgorin bound; the
    decomposition is accepted only if eigenspace dimensions sum to the
    full dimension.
    """
    if h.rows != h.cols:
        raise ValueError("h-action matrix must be square")
    n = h.rows
    if n == 0:
        return {}
    bound = 0
    for i in range(n):
        s = sum(abs(h[i, j]) for j in range(n))
        if s > bound:
            bound = s
    bound = int(bound) + 1
    out: dict[int, int] = {}
    total = 0
    for w in range(-bound, bound + 1):
        shifted = h - RatMatrix.identity(n).scale(w)
        mult = n - rank(shifted)
        if mult > 0:
            out[w] = mult
            total += mult
    if total != n:
        raise ValueError(
            "h-action is not diagonalizable with integer eigenvalues "
            f"(eigenspace dims sum to {total} of {n})"
        )
    return out


def tensor_multiplicity(a: int, b: int, c: int) -> int:
    """Multiplicity of V_c inside V_a ⊗ V_b by weight counting:
    (# tensor weights equal to c) - (# equal to c + 2). The weight
    a + b - 2k comes from the pairs (i, j) with i + j = k, i <= a and
    j <= b, which number min(k, a, b, a + b - k) + 1 for 0 <= k <= a + b,
    so the count costs nothing in a or b. Both counts are read inline:
    c >= 0 puts k at most a + b, and k - 1 is past the range only at k = 0."""
    if min(a, b, c) < 0:
        raise ValueError("highest weights must be nonnegative")
    k, odd = divmod(a + b - c, 2)
    if odd or k < 0:
        return 0
    below = min(k - 1, a, b, a + b - k + 1) + 1 if k else 0
    return min(k, a, b, a + b - k) + 1 - below

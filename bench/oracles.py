"""Output oracles, one per job kind.

Each oracle takes a job and its output (exit code, stdout) and returns
None when the output is right, or a one-line reason when it is not. No
oracle calls trilie: they use the Clebsch–Gordan rule, the structure
constants in the job's own input document, and plain sparse products.
"""

from __future__ import annotations

import json
from fractions import Fraction

from decks import Job, basis_bracket, structure_of


def cg_dim(lam: int, n: int, m: int) -> int:
    """dim Hom_sl2(V_λ ⊗ V_n, V_m): 1 iff |λ-n| <= m <= λ+n, λ+n-m even."""
    return int(abs(lam - n) <= m <= lam + n and (lam + n - m) % 2 == 0)


def _rows(matrix: list[list[str]]) -> dict:
    """Sparse {r: {c: Fraction}} form of a JSON matrix."""
    out = {}
    for r, row in enumerate(matrix):
        entries = {c: Fraction(x) for c, x in enumerate(row) if x != "0"}
        if entries:
            out[r] = entries
    return out


def _product(a: dict, b: dict) -> dict:
    out = {}
    for r, arow in a.items():
        acc: dict = {}
        for k, x in arow.items():
            for c, y in b.get(k, {}).items():
                acc[c] = acc.get(c, 0) + x * y
        acc = {c: v for c, v in acc.items() if v}
        if acc:
            out[r] = acc
    return out


def _combine(terms: list[tuple[Fraction, dict]]) -> dict:
    out: dict = {}
    for coeff, mat in terms:
        for r, row in mat.items():
            acc = out.setdefault(r, {})
            for c, v in row.items():
                acc[c] = acc.get(c, 0) + coeff * v
    return {r: kept for r, row in out.items()
            if (kept := {c: v for c, v in row.items() if v})}


def is_homomorphism(doc: dict, literal_e_coefficient: bool = False) -> bool:
    """rho([b_i, b_j]) == [rho(b_i), rho(b_j)] for every pair i < j.

    With `literal_e_coefficient`, e acts on the degree-1 string w_0..w_m
    by e w_k = k(n - k + 1) w_{k-1}, the printed coefficient that
    `verify --paper-literal` rebuilds the family module with.
    """
    algebra = doc["algebra"]
    structure = structure_of(algebra)
    labels = algebra["labels"]
    images = [_rows(doc["images"][label]) for label in labels]
    if literal_e_coefficient:
        n, m = doc["dims"][0] - 1, doc["dims"][1] - 1
        e = images[labels.index("e")]
        for k in range(1, m + 1):
            row = e.setdefault(n + k, {})
            row[n + 1 + k] = Fraction(k * (n - k + 1))
            if not row[n + 1 + k]:
                del row[n + 1 + k]
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            expected = _combine(
                [(c, images[k]) for k, c in basis_bracket(structure, i, j).items()]
            )
            actual = _combine([(Fraction(1), _product(images[i], images[j])),
                               (Fraction(-1), _product(images[j], images[i]))])
            if expected != actual:
                return False
    return True


def _survey(job: Job, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    report = json.loads(out)
    lam, n_max, m_max = job.params["lam"], job.params["N"], job.params["M"]
    grid = [(n, m) for n in range(n_max + 1) for m in range(m_max + 1)]
    if [(c["n"], c["m"]) for c in report["cells"]] != grid:
        return "cells do not cover the (n, m) grid in order"
    for cell in report["cells"]:
        if cell["agree"] is not True:
            return f"cell {cell['n']},{cell['m']} does not agree"
        if cell["dim"] != cg_dim(lam, cell["n"], cell["m"]):
            return f"cell {cell['n']},{cell['m']} dim {cell['dim']} breaks Clebsch–Gordan"
    return None


def _check(job: Job, rc: int, out: str) -> str | None:
    report = json.loads(out)
    if rc != 0 or report["all_pass"] is not True:
        return f"exit {rc}, all_pass {report['all_pass']}"
    if not (report["axioms"]["all_pass"] and report["levi_data"]["all_pass"]):
        return "a passing algebra reported failing checks"
    return None


def _verify(job: Job, rc: int, out: str) -> str | None:
    report = json.loads(out)
    if rc != 0 or report["all_pass"] is not True:
        return f"exit {rc}, all_pass {report['all_pass']}"
    irr = report["irreducible_components"]
    if not (report["homomorphism"] and report["faithful"] and irr and all(irr)):
        return "a passing representation reported failing checks"
    return None


def conjugated_levi_basis(k: int, z: tuple) -> list[list[Fraction]]:
    """exp(ad z)(s) = s + [z, s] for s in (f, h, e) of sl2^k: z lies in
    the abelian nilradical, so [z, [z, s]] = 0."""
    out = []
    for s in range(3):
        v = [Fraction(int(g == s)) for g in range(k + 4)]
        for j, c in enumerate(z[3:]):
            if not c:
                continue
            if s == 0 and j + 1 <= k:       # [z_j, f] = -z_{j+1}
                v[3 + j + 1] -= c
            elif s == 1:                    # [z_j, h] = -(k - 2j) z_j
                v[3 + j] -= c * (k - 2 * j)
            elif s == 2 and j >= 1:         # [z_j, e] = -j(k - j + 1) z_{j-1}
                v[3 + j - 1] -= c * j * (k - j + 1)
        out.append(v)
    return out


def _adjoint(job: Job, rc: int, out: str) -> str | None:
    report = json.loads(out)
    if report["all_pass"] is not True:
        return "conjugated adjoint representation reported failing"
    expected = conjugated_levi_basis(job.params["k"], job.params["z"])
    actual = [[Fraction(x) for x in v] for v in report["conjugated_levi_basis"]]
    if actual != expected:
        return "conjugated Levi basis differs from s + [z, s]"
    return None


def _audit(job: Job, rc: int, out: str) -> str | None:
    report = json.loads(out)
    if rc != (0 if report["all_pass"] else 1):
        return f"exit {rc} with all_pass {report['all_pass']}"
    literal = job.kind == "audit_literal"
    if report["homomorphism"] != is_homomorphism(json.loads(job.stdin), literal):
        return f"homomorphism {report['homomorphism']} disagrees with the bracket check"
    return None


ORACLES = {
    "survey": _survey,
    "check": _check,
    "verify": _verify,
    "adjoint": _adjoint,
    "audit": _audit,
    "audit_literal": _audit,
}


def check_output(job: Job, rc: int, out: str) -> str | None:
    """None when the job's output is right, else why it is wrong."""
    try:
        return ORACLES[job.kind](job, rc, out)
    except (ValueError, KeyError, TypeError) as exc:  # unparsable output
        return f"malformed output: {type(exc).__name__}: {exc}"

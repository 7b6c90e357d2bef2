"""Seeded job decks for the three benchmark workloads.

A deck is the fixed list of jobs one pass of a workload runs. Each job
is one call into a public trilie entry point: `trilie.cli.run(argv)`
with an optional stdin document, or the library adjoint pipeline.

Every workload keeps a fixed list of size slots and lets the seed draw
everything that does not set a job's cost: λ, orientation of (N, M),
basis orders, scalars and job order. So two seeds give different inputs
(and different output digests) but the same mix of job sizes, which is
what keeps the timings comparable from seed to seed.

Documents the trilie CLI can emit (`gen sl2l`, `gen family`) come from
it; the adjoint and two-block representation documents are built here
from the structure constants, independently of the library code under
test.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("survey", "certify", "audit")

# survey: every unordered (a, b) with 2 <= a <= b <= 10 and a + b <= 12,
# plus seven larger cells that stretch the size range for the scaling fit
SURVEY_SLOTS = tuple(
    (a, b) for a in range(2, 11) for b in range(a, 11) if a + b <= 12
) + ((3, 10), (4, 9), (5, 8), (6, 7), (4, 10), (7, 7), (8, 8))

# certify: sizes of the four job kinds (k is the Λ of sl2^Λ, dim Λ + 4)
CHECK_K = (4, 5, 6, 7, 8, 10, 12, 14, 16, 20)
ADJOINT_VERIFY_K = (4, 6, 8, 10, 12, 16)
TWO_BLOCK_CELLS = (  # (λ, n, m), all inside the Clebsch–Gordan range
    (1, 2, 3), (2, 3, 3), (1, 4, 5), (3, 5, 4), (2, 6, 6), (1, 8, 9),
    (2, 8, 10), (4, 10, 8), (1, 12, 13), (3, 14, 15), (2, 16, 16),
    (1, 18, 19),
)
PIPELINE_K = (4, 6, 8, 10, 12, 16)

# audit: every tuple of `trilie enumerate --lambda λ --max-m 5 --max-n 5`
AUDIT_LAMBDAS = (1, 2, 3)
AUDIT_MAX = 5

SMALL_RATIONALS = tuple(
    Fraction(x) for x in ("0", "1", "-1", "1/2", "-1/2", "2", "-2", "1/3")
)
NONZERO_RATIONALS = tuple(x for x in SMALL_RATIONALS if x)


@dataclass
class Job:
    """One call into trilie: `kind` selects the executor and the oracle."""

    kind: str
    argv: tuple = ()
    stdin: str | None = None
    params: dict = field(default_factory=dict)

    def size(self) -> str:
        return ",".join(f"{k}={v}" for k, v in self.params.items() if k != "z")


def call_cli(cli, argv, stdin=None) -> tuple[int, str, str]:
    """Run `cli.run(argv)` in-process with captured stdin/stdout/stderr."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.run(list(argv))
            except SystemExit as exc:  # argparse rejects arguments this way
                rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdin = saved
    return rc, out.getvalue(), err.getvalue()


def _gen(cli, argv) -> str:
    rc, out, err = call_cli(cli, argv)
    if rc != 0:
        raise RuntimeError(f"trilie {' '.join(argv)} exited {rc}: {err}")
    return out


# --- plain structure-constant helpers (no trilie code) -----------------

def structure_of(algebra_doc: dict) -> dict:
    """{(i, j): {k: Fraction}} for i < j from an algebra document."""
    return {
        (int(i), int(j)): {int(k): Fraction(c) for k, c in coeffs}
        for i, j, coeffs in algebra_doc["brackets"]
    }


def basis_bracket(structure: dict, i: int, j: int) -> dict:
    """[b_i, b_j] as {k: coefficient}."""
    if i == j:
        return {}
    if i < j:
        return structure.get((i, j), {})
    return {k: -c for k, c in structure.get((j, i), {}).items()}


def permute_algebra(doc: dict, perm: list[int]) -> dict:
    """The same algebra with basis element i renumbered perm[i]."""
    labels = [None] * doc["dim"]
    for old, label in enumerate(doc["labels"]):
        labels[perm[old]] = label
    brackets = []
    for i, j, coeffs in doc["brackets"]:
        a, b, sign = perm[i], perm[j], 1
        if a > b:
            a, b, sign = b, a, -1
        moved = sorted((perm[k], str(sign * Fraction(c))) for k, c in coeffs)
        brackets.append([a, b, [list(kc) for kc in moved]])
    brackets.sort(key=lambda entry: (entry[0], entry[1]))
    return {
        "dim": doc["dim"],
        "labels": labels,
        "brackets": brackets,
        **{key: sorted(perm[x] for x in doc[key])
           for key in ("levi", "radical", "nilradical")},
    }


def _dense(entries: dict, dim: int) -> list[list[str]]:
    rows = [["0"] * dim for _ in range(dim)]
    for (r, c), v in entries.items():
        if v:
            rows[r][c] = str(v)
    return rows


def adjoint_document(algebra_doc: dict, rng: random.Random) -> dict:
    """Adjoint representation of an sl2^Λ document in a graded basis.

    For sl2^Λ the nilradical is abelian and equals the radical, so the
    Levi span (degree 0) followed by the nilradical (degree 1) is a
    grading along the nilradical filtration; the seed orders the basis
    inside each degree.
    """
    structure = structure_of(algebra_doc)
    levi = list(algebra_doc["levi"])
    nil = list(algebra_doc["nilradical"])
    rng.shuffle(levi)
    rng.shuffle(nil)
    basis = levi + nil
    pos = {g: p for p, g in enumerate(basis)}
    dim = len(basis)
    images = {}
    for i, label in enumerate(algebra_doc["labels"]):
        entries = {}
        for c, g in enumerate(basis):
            for k, v in basis_bracket(structure, i, g).items():
                entries[pos[k], c] = v
        images[label] = _dense(entries, dim)
    return {"algebra": algebra_doc, "dims": [len(levi), len(nil)],
            "images": images}


def _string(d: int) -> tuple[dict, dict, dict]:
    """f, h, e on the irreducible x_0..x_d: h x_i = (d-2i) x_i,
    f x_i = x_{i+1}, e x_i = i(d-i+1) x_{i-1}."""
    f = {(i + 1, i): Fraction(1) for i in range(d)}
    h = {(i, i): Fraction(d - 2 * i) for i in range(d + 1)}
    e = {(i - 1, i): Fraction(i * (d - i + 1)) for i in range(1, d + 1)}
    return f, h, e


def highest_weight_block(lam: int, n: int, m: int, scalar: Fraction) -> dict:
    """The Z_0: V_n -> V_m solving H_m Z - Z H_n = λ Z, E_m Z = Z E_n.

    Z_0 lives on the weight-matched cells t = i + δ, δ = (m - n - λ)/2,
    and the e-equation is the chain recurrence
    (i + δ)(m - i - δ + 1) z_i = i (n - i + 1) z_{i-1}.
    """
    if (m - n - lam) % 2 or not abs(lam - n) <= m <= lam + n:
        raise ValueError(f"no intertwiner for (λ, n, m) = {(lam, n, m)}")
    delta = (m - n - lam) // 2
    z = scalar
    block = {(0, -delta): z}
    for i in range(-delta + 1, n + 1):
        z = z * i * (n - i + 1) / ((i + delta) * (m - i - delta + 1))
        block[i + delta, i] = z
    return block


def two_block_document(algebra_doc: dict, lam: int, n: int, m: int,
                       scalar: Fraction, rng: random.Random) -> dict:
    """V_n (degree 0) ⊕ V_m (degree 1) with z_0 acting by the highest-
    weight intertwiner and z_{j+1} = F_m Z_j - Z_j F_n; the seed orders
    the basis inside each component."""
    off = n + 1
    total = n + m + 2
    images = {}
    for label, u_mat, w_mat in zip("fhe", _string(n), _string(m)):
        entries = dict(u_mat)
        entries.update({(off + r, off + c): v for (r, c), v in w_mat.items()})
        images[label] = entries
    zj = highest_weight_block(lam, n, m, scalar)
    for j in range(lam + 1):
        images[f"z{j}"] = {(off + t, i): v for (t, i), v in zj.items()}
        nxt: dict = {}
        for (t, i), v in zj.items():  # (F_m Z)[t+1][i] += v, (Z F_n)[t][i-1] += v
            if t + 1 <= m:
                nxt[t + 1, i] = nxt.get((t + 1, i), 0) + v
            if i >= 1:
                nxt[t, i - 1] = nxt.get((t, i - 1), 0) - v
        zj = {key: v for key, v in nxt.items() if v}
    u_order = list(range(off))
    w_order = list(range(off, total))
    rng.shuffle(u_order)
    rng.shuffle(w_order)
    perm = u_order + w_order  # old index perm[p] sits at new position p
    new = {old: p for p, old in enumerate(perm)}
    docs_images = {
        label: _dense({(new[r], new[c]): v for (r, c), v in entries.items()},
                      total)
        for label, entries in images.items()
    }
    order = list(range(algebra_doc["dim"]))
    rng.shuffle(order)
    return {"algebra": permute_algebra(algebra_doc, order),
            "dims": [off, m + 1], "images": docs_images}


# --- decks -------------------------------------------------------------

def survey_deck(cli, rng: random.Random) -> list[Job]:
    jobs = []
    for a, b in SURVEY_SLOTS:
        lam = rng.randint(1, 4)
        n_max, m_max = (a, b) if rng.random() < 0.5 else (b, a)
        argv = ("classify", "--lambda", str(lam), "--max-n", str(n_max),
                "--max-m", str(m_max))
        jobs.append(Job("survey", argv,
                        params={"lam": lam, "N": n_max, "M": m_max}))
    rng.shuffle(jobs)
    return jobs


def certify_deck(cli, rng: random.Random) -> list[Job]:
    algebras = {}

    def algebra(k: int) -> dict:
        if k not in algebras:
            algebras[k] = json.loads(_gen(cli, ("gen", "sl2l", "--lambda", str(k))))
        return algebras[k]

    def shuffled(k: int) -> dict:
        order = list(range(k + 4))
        rng.shuffle(order)
        return permute_algebra(algebra(k), order)

    jobs = []
    for k in CHECK_K:
        jobs.append(Job("check", ("check", "-"), json.dumps(shuffled(k)),
                        {"k": k}))
    for k in ADJOINT_VERIFY_K:
        doc = adjoint_document(shuffled(k), rng)
        jobs.append(Job("verify", ("verify", "-"), json.dumps(doc),
                        {"k": k, "dim": k + 4}))
    for lam, n, m in TWO_BLOCK_CELLS:
        scalar = rng.choice(NONZERO_RATIONALS)
        doc = two_block_document(algebra(lam), lam, n, m, scalar, rng)
        jobs.append(Job("verify", ("verify", "-"), json.dumps(doc),
                        {"lam": lam, "n": n, "m": m, "dim": n + m + 2}))
    for k in PIPELINE_K:
        z = [Fraction(0)] * (k + 4)
        for idx in rng.sample(range(3, k + 4), 3):
            z[idx] = rng.choice(NONZERO_RATIONALS)
        jobs.append(Job("adjoint", params={"k": k, "z": tuple(z)}))
    rng.shuffle(jobs)
    return jobs


def audit_deck(cli, rng: random.Random) -> list[Job]:
    jobs = []
    for lam in AUDIT_LAMBDAS:
        listing = _gen(cli, ("enumerate", "--lambda", str(lam),
                             "--max-m", str(AUDIT_MAX), "--max-n", str(AUDIT_MAX)))
        for line in listing.splitlines():
            m, n, s, big_n = map(int, line.split())
            a = ",".join(str(rng.choice(SMALL_RATIONALS)) for _ in range(n - s))
            doc = _gen(cli, ("gen", "family", "--lambda", str(lam), "--m", str(m),
                             "--n", str(n), "--s", str(s), "--bigN", str(big_n),
                             f"--a={a}"))
            params = {"lam": lam, "m": m, "n": n, "s": s, "N": big_n}
            jobs.append(Job("audit", ("verify", "-"), doc, params))
            jobs.append(Job("audit_literal", ("verify", "-", "--paper-literal"),
                            doc, params))
    rng.shuffle(jobs)
    return jobs


_BUILDERS = {"survey": survey_deck, "certify": certify_deck, "audit": audit_deck}


def build_deck(workload: str, seed: int, cli) -> list[Job]:
    """The deck of one workload; the same seed gives the same deck."""
    return _BUILDERS[workload](cli, random.Random(f"{workload}:{seed}"))

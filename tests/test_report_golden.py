"""A golden digest over mostly failing `check` and `verify` reports.

The benchmark digests see only passing `check` jobs, and failing
`verify` jobs in the standard sl2 basis. This seeded deck adds:
- `check` on sl2^lam (lam <= 3) with random, unsorted or repeated
  Levi, radical and nilradical lists and altered brackets;
- `verify` of sl2 on V_d (d <= 4) in permuted and rescaled bases, with
  altered tables, repeated Levi indices, split gradings and perturbed
  images.

The sha256 of every exit code and report is pinned, so any change to a
report byte, passing or failing, fails here. A second, smaller deck
pins the same at dimension 68, beyond the benchmark decks: `check` on
sl2^64 in a permuted and rescaled basis, `verify` of its adjoint
representation, and one altered-bracket variant of each. A third deck
pins `decompose` on about 300 seeded graded maps, triangular and
lowering, over graded spaces with empty and single components. A last
test writes the three decks, and one output of `gen`, `check` and
`classify`, with `json.dumps` barred: every verb but `classify` writes
its report value through `jsonio.dumps`, the one walk, and each output
equals `json.dumps` of the plain form the oracle `brute_jsonable` makes
of that value; `classify` writes through its own template renderer and
is held to `json.dumps` of the dict oracle `brute_classification_report`.
"""

import contextlib
import copy
import hashlib
import io
import json
import random
from fractions import Fraction

from trilie import cli
from trilie.cli import run
from trilie.exact import rat_str
from trilie.jsonio import (
    algebra_to_json,
    dumps,
    jsonable,
    matrix_to_json,
    representation_to_json,
)
from trilie.liealg import (
    LeviData,
    LieAlgebra,
    adjoint_grading,
    adjoint_representation,
    build_sl2,
    build_sl2_lambda,
)
from trilie.sl2theory import build_irreducible

from helpers import brute_classification_report, brute_jsonable, rebased

DECK_SHA256 = "13ab282c3173a4111f06bf724f8d5ebaf1e072df6ce762937c33361deadf4685"
LARGE_DECK_SHA256 = "100a8a73ae6bd221ae67a906145011f3f3fdd36b79eb8fb23f8f921e9b905206"
DECOMPOSE_DECK_SHA256 = "6f22dcc2a448dadd60a59b8add10add24dc977a37d5eae714ecfcd94bbc686a3"
SCALARS = [1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 3), Fraction(3, 2)]


def _scalar(rng):
    return rat_str(rng.choice(SCALARS))


def _corrupt_brackets(rng, doc):
    """Change, extend or drop one stored bracket, or add a new one."""
    dim, brackets = doc["dim"], doc["brackets"]
    action = rng.choice(["change", "extend", "drop", "add"])
    if action != "add" and brackets:
        entry = rng.choice(brackets)
        if action == "change":
            term = rng.choice(entry[2])
            term[1] = _scalar(rng)
        elif action == "extend":
            entry[2].append([rng.randrange(dim), _scalar(rng)])
        else:
            brackets.remove(entry)
        return
    i, j = sorted(rng.sample(range(dim), 2))
    brackets.append([i, j, [[rng.randrange(dim), _scalar(rng)]]])


def _index_list(rng, declared, dim):
    """The declared list kept, shuffled with a repeat, cut short, replaced
    by every index, or drawn at random (unsorted, with repeats)."""
    kind = rng.choice(["keep", "repeat", "cut", "all", "random"])
    out = list(declared)
    if kind == "all":
        out = rng.sample(range(dim), dim)
    elif kind == "repeat" and out:
        out.append(rng.choice(out))
        rng.shuffle(out)
    elif kind == "cut" and out:
        out.pop(rng.randrange(len(out)))
    elif kind == "random":
        out = [rng.randrange(dim) for _ in range(rng.randint(0, dim))]
    return out


def _check_doc(rng):
    doc = algebra_to_json(*build_sl2_lambda(rng.randint(1, 3)))
    for _ in range(rng.choice([0, 0, 1, 2])):
        _corrupt_brackets(rng, doc)
    for key in ("levi", "radical", "nilradical"):
        doc[key] = _index_list(rng, doc[key], doc["dim"])
    return doc


def _sl2_in_basis(rng):
    """sl2 on b'_p = s_p b_perm[p], with the matching scale per image;
    h is scaled by 1 or -1 two times in three, so that it is recognized."""
    L, _ = build_sl2()
    perm = rng.sample(range(3), 3)
    scales = [rng.choice(SCALARS) for _ in range(3)]
    h_pos = perm.index(1)
    scales[h_pos] = rng.choice([1, -1, scales[h_pos]])
    labels = [L.basis_labels[old] for old in perm]
    return LieAlgebra(3, labels, rebased(L.structure, perm, scales)), perm, scales


def _verify_doc(rng):
    d = rng.randint(0, 4)
    module = build_irreducible(d)
    old_images = (module.f_mat, module.h_mat, module.e_mat)
    L, perm, scales = _sl2_in_basis(rng)
    levi = rng.sample(range(3), 3)
    kind = rng.randrange(4)
    if kind == 1:
        levi[rng.randrange(3)] = rng.randrange(3)
    elif kind == 2:
        levi = _index_list(rng, levi, 3)
    nilrad = rng.choice([[], [], [rng.randrange(3)]])
    algebra = algebra_to_json(L, LeviData(tuple(levi), (), tuple(nilrad)))
    for _ in range(rng.choice([0, 0, 1])):
        _corrupt_brackets(rng, algebra)
    images = {
        L.basis_labels[p]: matrix_to_json(old_images[perm[p]].scale(scales[p]))
        for p in range(3)
    }
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        rows = images[rng.choice(L.basis_labels)]
        rows[rng.randrange(d + 1)][rng.randrange(d + 1)] = _scalar(rng)
    cut = rng.choice([0, 0, rng.randint(0, d + 1)])
    dims = [d + 1] if not cut else [cut, d + 1 - cut]
    return {"algebra": algebra, "dims": dims, "images": images}


def deck(seed=2024, size=1000):
    rng = random.Random(seed)
    for t in range(size):
        if t % 2:
            yield "verify", _verify_doc(rng)
        else:
            yield "check", _check_doc(rng)


def large_deck(seed=64):
    """check on sl2^64 in a permuted and rescaled basis, verify of the
    adjoint representation of sl2^64, and each again with one altered
    bracket."""
    rng = random.Random(seed)
    L, D = build_sl2_lambda(64)
    perm = rng.sample(range(L.dim), L.dim)
    scales = [rng.choice(SCALARS) for _ in range(L.dim)]
    where = {old: p for p, old in enumerate(perm)}
    move = lambda idx: tuple(where[i] for i in idx)  # noqa: E731
    moved = LieAlgebra(
        L.dim, [L.basis_labels[old] for old in perm], rebased(L.structure, perm, scales)
    )
    check = algebra_to_json(
        moved, LeviData(move(D.levi_indices), move(D.radical_indices), move(D.nilrad_indices))
    )
    verify = jsonable(representation_to_json(adjoint_representation(L, adjoint_grading(L, D))))
    yield "check", check
    yield "verify", verify
    check, verify = copy.deepcopy(check), copy.deepcopy(verify)
    _corrupt_brackets(rng, check)
    _corrupt_brackets(rng, verify["algebra"])
    yield "check", check
    yield "verify", verify


def _run_text(monkeypatch, argv, text=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue()


def _run_document(monkeypatch, verb, doc):
    return _run_text(monkeypatch, [verb, "-"], json.dumps(doc))


def test_failing_reports_match_golden(monkeypatch):
    digest = hashlib.sha256()
    codes = []
    for verb, doc in deck():
        code, out = _run_document(monkeypatch, verb, doc)
        codes.append(code)
        digest.update(f"{verb} {code}\n{out}".encode())
    assert codes.count(1) > codes.count(0) + codes.count(2)
    assert digest.hexdigest() == DECK_SHA256


def test_large_dimension_reports_match_golden(monkeypatch):
    digest = hashlib.sha256()
    codes = []
    for verb, doc in large_deck():
        code, out = _run_document(monkeypatch, verb, doc)
        codes.append(code)
        digest.update(f"{verb} {code}\n{out}".encode())
    assert codes == [0, 0, 1, 1]
    assert digest.hexdigest() == LARGE_DECK_SHA256


def decompose_deck(seed=12, size=300):
    """Graded-map documents: a random space (0-4 components of dim 0-3),
    entries mostly zero, and either every entry kept, the lowering blocks
    cleared (triangular), or one lowering entry planted in a triangular
    map."""
    rng = random.Random(seed)
    for _ in range(size):
        dims = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
        degree = [k for k, d in enumerate(dims) for _ in range(d)]
        n = len(degree)
        rows = [
            [_scalar(rng) if rng.random() < 0.4 else "0" for _ in range(n)]
            for _ in range(n)
        ]
        kind = rng.randrange(3)
        if kind:
            for r in range(n):
                for c in range(n):
                    if degree[r] < degree[c]:
                        rows[r][c] = "0"
            lowering = [(r, c) for r in range(n) for c in range(n) if degree[r] < degree[c]]
            if kind == 2 and lowering:
                r, c = rng.choice(lowering)
                rows[r][c] = _scalar(rng)
        yield {"dims": dims, "matrix": rows}


def test_decompose_reports_match_golden(monkeypatch):
    digest = hashlib.sha256()
    codes = []
    for doc in decompose_deck():
        code, out = _run_document(monkeypatch, "decompose", doc)
        codes.append(code)
        digest.update(f"{code}\n{out}".encode())
    assert codes.count(0) > 100 and codes.count(1) > 50
    assert digest.hexdigest() == DECOMPOSE_DECK_SHA256


# one artifact or report of each verb that writes one from its arguments
# or from the sl2^2 algebra on stdin, classify last
SINGLE_OUTPUTS = [
    ["gen", "sl2l", "--lambda", "2"],
    ["gen", "family", "--lambda", "2", "--m", "3", "--n", "3", "--s", "2", "--bigN", "1",
     "--a", "2/3"],
    ["check", "-"],
    ["classify", "--lambda", "2", "--max-n", "6", "--max-m", "6"],
]


def test_no_verb_output_reaches_the_json_fallback(monkeypatch):
    # every output written by the one walk `dumps`, with json.dumps barred
    # once the inputs are serialized: a report value the walk refused
    # would raise instead of matching its golden. The expected outputs
    # are json.dumps of each report's plain form, made by brute_jsonable
    sl2 = json.dumps(algebra_to_json(*build_sl2_lambda(2)))
    docs = [(verb, json.dumps(doc)) for verb, doc in deck()]
    large = [(verb, json.dumps(doc)) for verb, doc in large_deck()]
    maps = [json.dumps(doc) for doc in decompose_deck()]
    monkeypatch.setattr(
        cli, "dumps", lambda value: json.dumps(brute_jsonable(value), indent=2) + "\n")
    expected = [_run_text(monkeypatch, argv, sl2) for argv in SINGLE_OUTPUTS[:-1]]
    # classify does not call cli.dumps: its text is the oracle's json.dumps
    expected.append((0, json.dumps(brute_classification_report(2, 6, 6), indent=2) + "\n"))
    assert [code for code, _ in expected] == [0, 0, 0, 0]

    def barred(*args, **kwargs):
        raise AssertionError("an output reached json.dumps")

    monkeypatch.setattr(cli, "dumps", dumps)
    monkeypatch.setattr(json, "dumps", barred)
    assert [_run_text(monkeypatch, argv, sl2) for argv in SINGLE_OUTPUTS] == expected
    for texts, want in ((docs, DECK_SHA256), (large, LARGE_DECK_SHA256)):
        digest = hashlib.sha256()
        for verb, text in texts:
            code, out = _run_text(monkeypatch, [verb, "-"], text)
            digest.update(f"{verb} {code}\n{out}".encode())
        assert digest.hexdigest() == want
    digest = hashlib.sha256()
    for text in maps:
        code, out = _run_text(monkeypatch, ["decompose", "-"], text)
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == DECOMPOSE_DECK_SHA256

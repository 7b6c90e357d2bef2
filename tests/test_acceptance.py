"""Top-level acceptance gate.

Ten numbered checks, each printing exactly one live [PASS]/[FAIL] line
(outside pytest capture) before asserting. Everything is exact rational
equality — there are no tolerances anywhere in this suite. Timed checks
assert wall-clock bounds on top of correctness.
"""

import itertools
import json
import random
import time

from trilie.classify import (
    ExtensionProblem,
    assemble_representation,
    match_family,
    solve_extensions,
)
from trilie.cli import run as cli_run
from trilie.exact import RatMatrix, exp_nilpotent, rat, unit_vector
from trilie.family import ModuleParams, build_family_module, enumerate_params, verify_family
from trilie.graded import degree_components, is_homogeneous, positive_degree_part
from trilie.jsonio import dumps
from trilie.liealg import (
    ad_matrix,
    adjoint_grading,
    adjoint_representation,
    build_sl2,
    build_sl2_lambda,
    check_axioms,
    verify_levi_data,
)
from trilie.rep import (
    conjugate_levi_check,
    kernel,
    verify_homomorphism,
    verify_representation,
    verify_triangular_conditions,
)
from trilie.sl2theory import tensor_multiplicity

from helpers import graded_map_to_json, mat_power, seeded_triangular_map


def _emit(capsys, ok: bool, label: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def test_01_lie_axioms_fast(capsys):
    failures = []
    worst = 0.0
    cases = [("sl2", build_sl2())]
    cases += [(f"sl2^{k}", build_sl2_lambda(k)) for k in range(1, 7)]
    for name, (L, D) in cases:
        t0 = time.monotonic()
        ax = check_axioms(L)
        levi = verify_levi_data(L, D)
        dt = time.monotonic() - t0
        worst = max(worst, dt)
        if not (ax["all_pass"] and levi["all_pass"]):
            failures.append(name)
        if dt >= 1.0:
            failures.append(f"{name} took {dt:.2f}s")
    _emit(
        capsys,
        not failures,
        "01 bracket axioms + certified decomposition, sl2 and sl2^k k=1..6, "
        f"slowest {worst * 1000:.0f} ms" + (f"; failures: {failures}" if failures else ""),
    )


def test_02_stripe_decomposition(capsys):
    rng = random.Random(74207431)
    failures = 0
    for _ in range(100):
        g = seeded_triangular_map(rng)
        comps = degree_components(g)
        total = g.zero(g.space)
        ok = True
        for j, stripe in comps.items():
            ok = ok and is_homogeneous(stripe, j)
            total = total + stripe
        ok = ok and total.matrix == g.matrix
        for i, j in itertools.product(comps, repeat=2):
            ok = ok and is_homogeneous(comps[i].compose(comps[j]), i + j)
        if not ok:
            failures += 1
    _emit(
        capsys,
        failures == 0,
        "02 stripes homogeneous, sum exact, composition adds degrees "
        f"(100 random maps, {failures} failures)",
    )


def test_03_positive_degree_nilpotent(capsys):
    rng = random.Random(86243)
    failures = 0
    for _ in range(100):
        g = seeded_triangular_map(rng)
        c = g.space.num_components
        pos = positive_degree_part(g)
        if not mat_power(pos.matrix, c).is_zero():
            failures += 1
    _emit(
        capsys,
        failures == 0,
        f"03 positive-degree part^c = 0 on c-component spaces (100 maps, {failures} failures)",
    )


def test_04_adjoint_pipeline(capsys):
    failures = []
    for lam in range(1, 5):
        L, D = build_sl2_lambda(lam)
        rho = adjoint_representation(L, adjoint_grading(L, D))
        hom_ok, _ = verify_homomorphism(rho)
        tri = verify_triangular_conditions(rho)
        ok = (
            hom_ok
            and tri["triangular_all"]
            and tri["condition_i"]
            and tri["condition_ii"]
            and kernel(rho) == []
        )
        if not ok:
            failures.append(lam)
    _emit(
        capsys,
        not failures,
        "04 adjoint representations k=1..4: homomorphism, degree conditions, "
        "trivial kernel" + (f"; failed at {failures}" if failures else ""),
    )


def test_05_levi_conjugation(capsys):
    failures = []
    for lam in range(1, 4):
        L, D = build_sl2_lambda(lam)
        reps = {
            "adjoint": adjoint_representation(L, adjoint_grading(L, D)),
            "family": build_family_module(ModuleParams(lam, lam, 0, 0, 0, ())),
        }
        for name, rho in reps.items():
            for zi in D.nilrad_indices:
                z = unit_vector(L.dim, zi)
                neg_z = tuple(-c for c in z)
                report = conjugate_levi_check(rho, z)
                if not report["all_pass"]:
                    failures.append((lam, name, zi))
                    continue
                # moving by z then -z must undo both changes of basis exactly
                ident_alg = exp_nilpotent(ad_matrix(L, z)) @ exp_nilpotent(
                    ad_matrix(L, neg_z)
                ) == RatMatrix.identity(L.dim)
                ident_rep = exp_nilpotent(rho.image_of(z).matrix) @ exp_nilpotent(
                    rho.image_of(neg_z).matrix
                ) == RatMatrix.identity(rho.space.total_dim)
                if not (ident_alg and ident_rep):
                    failures.append((lam, name, zi, "not restored"))
    _emit(
        capsys,
        not failures,
        "05 conjugation by each nil generator keeps all conditions and "
        "z then -z restores the grading (k<=3, adjoint + family)"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_06_solution_dims_match_multiplicities(capsys):
    t0 = time.monotonic()
    mismatches = []
    cells = 0
    for lam in range(1, 5):
        for n in range(5):
            for m in range(5):
                dim = solve_extensions(ExtensionProblem(lam, n, m)).dimension
                cg = tensor_multiplicity(lam, n, m)
                cells += 1
                if dim != cg:
                    mismatches.append((lam, n, m, dim, cg))
    elapsed = time.monotonic() - t0
    ok = not mismatches and elapsed < 10.0
    _emit(
        capsys,
        ok,
        f"06 solver dimension = tensor multiplicity on {cells} cells "
        f"in {elapsed:.2f}s" + (f"; mismatches: {mismatches}" if mismatches else ""),
    )


def test_07_assembly_soundness(capsys):
    failures = []
    assembled = 0
    for lam in range(1, 5):
        for n in range(5):
            for m in range(5):
                space = solve_extensions(ExtensionProblem(lam, n, m))
                if space.dimension == 0:
                    continue
                rho = assemble_representation(space.problem, space.basis[0])
                report = verify_representation(rho)
                assembled += 1
                ok = (
                    report["homomorphism"]
                    and report["triangular_all"]
                    and report["condition_i"]
                    and report["condition_ii"]
                    and report["irreducible_components"] == [True, True]
                )
                if not ok:
                    failures.append((lam, n, m))
    _emit(
        capsys,
        assembled > 0 and not failures,
        f"07 every nonzero solution cell assembles to a fully verified "
        f"2-irreducible representation ({assembled} cells)"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_08_family_audit(capsys):
    samples = (rat(0), rat(1), rat(-1), rat("1/2"), rat("-1/2"))
    audited = all_pass = 0
    member_failures = []
    discrepant = {}  # tuple -> count of a-samples where readings differ
    spaces = {}
    for lam in (1, 2):
        for m, n, s, big_n in enumerate_params(lam, 4, 4):
            for a in itertools.product(samples, repeat=n - s):
                p = ModuleParams(lam, m, n, s, big_n, a)
                report = verify_family(p)
                audited += 1
                lit = build_family_module(p, paper_literal=True)
                cor = build_family_module(p)
                if any(x.matrix != y.matrix for x, y in zip(lit.images, cor.images)):
                    key = (lam, m, n, s, big_n)
                    discrepant[key] = discrepant.get(key, 0) + 1
                if report["all_pass"]:
                    all_pass += 1
                    cell = (lam, n, m)
                    if cell not in spaces:
                        spaces[cell] = solve_extensions(ExtensionProblem(*cell))
                    verdict = match_family(spaces[cell].problem, spaces[cell], p)
                    if not verdict["member"]:
                        member_failures.append((lam, m, n, s, big_n, a))
    listing = "; ".join(
        f"(lam={k[0]},m={k[1]},n={k[2]},s={k[3]},N={k[4]})x{v}"
        for k, v in sorted(discrepant.items())
    )
    ok = audited > 0 and all_pass > 0 and not member_failures
    _emit(
        capsys,
        ok,
        f"08 family audit: {audited} parameter/scalar samples, {all_pass} all-pass, "
        f"every all-pass module in the solver span; literal-vs-corrected "
        f"readings differ on {len(discrepant)} tuples [{listing}]"
        + (f"; span failures: {member_failures}" if member_failures else ""),
    )


def test_09_parameter_enumeration(capsys):
    got = enumerate_params(1, 2, 2)
    expected = [
        (1, 0, 0, 0),
        (2, 1, 0, 0),
        (0, 1, 1, 0),
        (2, 1, 1, 1),
        (1, 2, 1, 0),
        (1, 2, 2, 1),
    ]
    _emit(
        capsys,
        got == expected,
        f"09 parameter enumeration (k=1, m,n<=2) yields the six tuples in order"
        + ("" if got == expected else f"; got {got}"),
    )


def _artifact_pass(base) -> dict:
    base.mkdir()
    fam = base / "family.json"
    cmds = {
        "algebra.json": ["gen", "sl2l", "--lambda", "2"],
        "family.json": [
            "gen", "family", "--lambda", "1", "--m", "2", "--n", "1",
            "--s", "0", "--bigN", "0", "--a", "1",
        ],
        "classify.json": ["classify", "--lambda", "1", "--max-n", "2", "--max-m", "2"],
    }
    for name, argv in cmds.items():
        assert cli_run(argv + ["-o", str(base / name)]) == 0
    assert cli_run(["verify", str(fam), "-o", str(base / "verify.json")]) == 0
    L, D = build_sl2_lambda(2)
    rho = adjoint_representation(L, adjoint_grading(L, D))
    gmap = base / "admap.json"
    gmap.write_text(dumps(graded_map_to_json(rho.images[0])))
    assert cli_run(["decompose", str(gmap), "-o", str(base / "decompose.json")]) == 0
    return {p.name: p.read_bytes() for p in sorted(base.iterdir())}


def test_10_deterministic_artifacts(capsys, tmp_path):
    first = _artifact_pass(tmp_path / "run1")
    second = _artifact_pass(tmp_path / "run2")
    same = first.keys() == second.keys() and all(
        first[k] == second[k] for k in first
    )
    parses = all(json.loads(v) is not None for v in first.values())
    _emit(
        capsys,
        same and parses,
        f"10 two full artifact passes byte-identical ({len(first)} JSON files)",
    )

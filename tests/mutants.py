"""Committed mutants of the fast paths, and the runner that kills them.

Each mutant is (name, file under src/trilie, exact old text,
replacement, test ids that must fail). For each one the runner copies
src/ and tests/ to a temporary directory, replaces the old text in the
copy, and runs the named tests there with PYTHONPATH at the copied
src/ and the Hypothesis profile "mutants" (tests/conftest.py), which
skips shrinking: any failing example kills. The mutant is killed when
pytest reports a failed test. The old text must occur exactly once, or
the run fails: a refactor that removes or repeats it must update this
list. A mutant leaves the list only together with the code it mutates.

Run from the repository root:

    python tests/mutants.py                    # every mutant
    python tests/mutants.py --budget 120       # fail past 120 s in total
    python tests/mutants.py rep.minor_threshold liealg.jacobi_middle_sign

Pytest does not collect this file: its name has no test_ prefix.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PER_MUTANT_S = 300  # a mutant that runs this long is stuck, which kills it too

MUTANTS = [
    # recognize_sl2: the integer minor test is scaled by d², not d
    ("rep.minor_threshold", "rep.py",
     "minors != -4 * d * d", "minors != -4 * d",
     ["tests/test_rep.py::TestRecognizeSl2Oracle"]),
    # recognize_sl2: f scaled at its first nonzero coordinate, which is not
    # the free column of nullspace_basis
    ("rep.free_column_first", "rep.py",
     "f_last = f[2] or f[1] or f[0]", "f_last = f[0] or f[1] or f[2]",
     ["tests/test_rep.py::TestRecognizeSl2Oracle"]),
    # recognize_sl2: [e, f] weighs each e_q m_q by the candidate's d
    ("rep.bracket_weights", "rep.py",
     "x *= lcd // d_q", "x *= lcd // d",
     ["tests/test_rep.py::TestRecognizeSl2Oracle"]),
    # is_k_irreducible: rho(e) misses the first Levi image
    ("rep.levi_image_dropped", "rep.py",
     "[(p, e[g]) for p, g in enumerate(levi)]",
     "[(p, e[g]) for p, g in enumerate(levi)][1:]",
     ["tests/test_rep.py::TestOneRankOracle", "tests/test_rep.py::TestIrreducibility"]),
    # kernel: a shared equation drops its entries' row denominators
    ("rep.kernel_equation_scale", "rep.py",
     "{column[k]: x * (d // q) for k, x, q in terms}", "{column[k]: x for k, x, q in terms}",
     ["tests/test_rep.py::TestKernel"]),
    # kernel: a position that one image stores alone no longer drops it
    ("rep.kernel_keeps_singletons", "rep.py",
     "        if len(eq) == 1:\n            dropped.update(eq)",
     "        if len(eq) == 1:\n            pass",
     ["tests/test_rep.py::TestKernel"]),
    # submatrix: a step-1 range may end one past the last index
    ("exact.submatrix_range_end", "exact.py",
     "indices.stop <= n)", "indices.stop <= n + 1)",
     ["tests/test_exact.py::TestSparseStorage::test_submatrix_rejects_out_of_range",
      "tests/test_exact.py::TestSparseStorage::test_submatrix_ranges_match_index_lists"]),
    # the stored form: a row's gcd with its denominator is not divided
    # out, so 1/2 + 1/2 is stored as 2/2
    ("exact.put_skips_gcd", "exact.py",
     "g = math.gcd(den, *row.values())", "g = 1",
     ["tests/test_exact.py::TestSparseStorage::test_ops_match_plain_lists"]),
    # the stored form: an entry is read without its row's denominator
    ("exact.getitem_ignores_den", "exact.py",
     "ZERO if x is None else Fraction(x, self.dens.get(i, 1))", "ZERO if x is None else Fraction(x)",
     ["tests/test_exact.py::TestSparseStorage::test_ops_match_plain_lists"]),
    # transpose: a new row keeps each entry as its source row stores it,
    # not over the lcm of their denominators
    ("exact.transpose_keeps_row_scale", "exact.py",
     "row[i] = x * (d // src.get(i, 1))", "row[i] = x",
     ["tests/test_exact.py::TestSparseStorage::test_transpose_brings_a_column_to_one_denominator",
      "tests/test_exact.py::TestSparseStorage::test_ops_match_plain_lists"]),
    # integral_rows: every row is scaled by the lcm, not by lcm / its own
    ("exact.integral_rows_whole_lcm", "exact.py",
     "row if (s := d // dens.get(i, 1)) == 1", "row if (s := d) == 1",
     ["tests/test_exact.py::TestSparseStorage::test_integral_rows_clear_the_least_common_denominator"]),
    # integer_row: a row takes its first fractional entry's denominator
    ("exact.integer_row_first_den", "exact.py",
     "d = math.lcm(d, q)", "d = d if d > 1 else q",
     ["tests/test_exact.py::TestSparseStorage::test_integer_row_clears_to_the_least_common_denominator"]),
    # matmul: a row 1/d is taken for a unit row and shares the right row
    ("exact.matmul_unit_row_over_den", "exact.py",
     "if len(arow) == 1 and i not in a_dens:", "if len(arow) == 1:",
     ["tests/test_exact.py::TestSparseStorage::test_matmul_shares_the_right_row_for_a_unit_row"]),
    # from_blocks: a later block's empty rows no longer overwrite
    ("exact.from_blocks_stored_rows", "exact.py",
     "for i in range(block.rows):\n                old = maps.pop(r0 + i, None)",
     "for i in block.maps:\n                old = maps.pop(r0 + i, None)",
     ["tests/test_exact.py::TestKernels::test_a_later_block_clears_its_empty_rows",
      "tests/test_exact.py::TestKernels::test_from_blocks_matches_oracle"]),
    # rat: non-ASCII digits reach int(), which reads some Fraction refuses
    ("exact.rat_isascii_dropped", "exact.py",
     'if value.removeprefix("-").isdigit() and value.isascii():',
     'if value.removeprefix("-").isdigit():',
     ["tests/test_jsonio.py::test_rat_reads_each_spelling_as_fraction_does"]),
    # rat: any number of leading signs passes the integer test
    ("exact.rat_lstrip", "exact.py",
     'value.removeprefix("-").isdigit()', 'value.lstrip("-").isdigit()',
     ["tests/test_jsonio.py::test_rat_reads_each_spelling_as_fraction_does"]),
    # bracket_defect: a nonempty image skips one stored partner with an
    # empty image
    ("liealg.defect_skips_stored_partner", "liealg.py",
     "extra = [j for j in coeffs if j > i and not scaled[j][1]]",
     "extra = [j for j in coeffs if j > i and not scaled[j][1]][1:]",
     ["tests/test_rep.py::TestHomomorphismOracle::test_sparse_images_match_plain_oracle"]),
    # LieAlgebra: the row [b_j, b_i] is stored without its denominator
    ("liealg.ad_row_den_one_sided", "liealg.py",
     "dens.setdefault(i, {})[j] = dens.setdefault(j, {})[i] = d",
     "dens.setdefault(i, {})[j] = d",
     ["tests/test_liealg.py::TestReadOnlyAlgebra::test_ad_rows_match_plain_oracle"]),
    # bracket_defect: [a, b] summed as ab + ba
    ("liealg.defect_commutator_sign", "liealg.py",
     "add_product(acc, b, a, -e)", "add_product(acc, b, a, e)",
     ["tests/test_rep.py::TestHomomorphismOracle"]),
    # _index_escape: the witness names the greatest escaping k
    ("liealg.index_escape_greatest_k", "liealg.py",
     "escapes[a, b] = min(outside)", "escapes[a, b] = max(outside)",
     ["tests/test_liealg.py::TestIndexEscape"]),
    # check_axioms: the term of J(a, x, b) with a < x < b keeps its sign
    ("liealg.jacobi_middle_sign", "liealg.py",
     "triple, w = (a, x, b), -c", "triple, w = (a, x, b), c",
     ["tests/test_liealg.py::TestStructureConstantOracles"]),
    # check_axioms: [b_j, b_i] read as +[b_i, b_j]
    ("liealg.jacobi_partner_sign", "liealg.py",
     "partners.setdefault(j, []).append((i, -1, d, row))",
     "partners.setdefault(j, []).append((i, 1, d, row))",
     ["tests/test_liealg.py::TestStructureConstantOracles"]),
    # render_classification: a cell with no solution is flagged unreached
    ("classify.unreached_without_dim", "classify.py",
     "if dim > 0 and outside and not reached:", "if outside and not reached:",
     ["tests/test_classify.py::test_render_matches_the_dict_oracle_on_any_cells",
      "tests/test_classify.py::test_classify_text_and_report_match_the_dict_oracle"]),
    # render_classification: "outside" is read from the first match only
    ("classify.outside_first_match_only", "classify.py",
     "            else:\n                outside = True",
     "            else:\n                outside = outside or not texts",
     ["tests/test_classify.py::test_render_matches_the_dict_oracle_on_any_cells",
      "tests/test_classify.py::test_classify_text_and_report_match_the_dict_oracle"]),
    # tensor_multiplicity: the lower count is read at k, not at k - 1
    ("sl2theory.lower_count_at_k", "sl2theory.py",
     "min(k - 1, a, b, a + b - k + 1)", "min(k, a, b, a + b - k)",
     ["tests/test_sl2theory.py::TestTensorMultiplicity::test_known_values",
      "tests/test_sl2theory.py::TestTensorMultiplicity::test_matches_weight_count_oracle"]),
]


def run_mutant(name: str, file: str, old: str, new: str, tests: list[str]) -> str:
    """'killed', 'survived', or an error text for a mutant that cannot run."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "src", Path(tmp) / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", Path(tmp) / "tests",
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = Path(tmp) / "src" / "trilie" / file
        text = path.read_text(encoding="utf-8")
        count = text.count(old)
        if count != 1:
            return f"old text occurs {count} times in {file}"
        path.write_text(text.replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src")}
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 "--hypothesis-profile", "mutants", *tests],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=PER_MUTANT_S)
        except subprocess.TimeoutExpired:
            return "killed"
    # pytest exits 1 when a test failed; 0 is a survivor, anything else
    # (no tests collected, a usage error) means the test ids are wrong
    if done.returncode == 1:
        return "killed"
    if done.returncode == 0:
        return "survived"
    return f"pytest exited {done.returncode}: {done.stdout.strip().splitlines()[-1:]}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--budget", type=float, default=None,
                        help="fail when all the runs take longer, in seconds")
    args = parser.parse_args(argv)
    known = {m[0] for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    start, failed = time.perf_counter(), 0
    for name, file, old, new, tests in MUTANTS:
        if args.names and name not in args.names:
            continue
        t0 = time.perf_counter()
        outcome = run_mutant(name, file, old, new, tests)
        print(f"{name}: {outcome} ({time.perf_counter() - t0:.1f} s)", flush=True)
        failed += outcome != "killed"
    total = time.perf_counter() - start
    print(f"{failed} not killed, {total:.0f} s in total")
    if args.budget is not None and total > args.budget:
        print(f"over the budget of {args.budget:.0f} s")
        return 1
    return int(failed > 0)


if __name__ == "__main__":
    sys.exit(main())

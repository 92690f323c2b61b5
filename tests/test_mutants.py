"""A standing mutant census of the closed forms, the fast path and the group
engine (run with -m slow).

Each mutant is a patch at a stable seam: the per-pattern dispatch of
gghecke.formulas.ClosedForms, HeckeAlgebra.table_formula, one exact snippet
of a module's source (formulas or hecke), which must occur there once,
cyclo.root_sum, which every character-sum count goes through,
hecke.rep_entries, the name under which the rep-table build reads its
entries, or one sign of the engine's table
chevalley._ETA, flipped before any group is built.  The patch is a pytest
plugin, so the mutant's test ids run in a fresh pytest process (the algebras
and the field tables are cached per process), and every one of them must fail;
unmutated, the same ids pass.  A change that moves a seam updates the census
with it.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gghecke"

# the form of kinds (0, 0, 0) negated, through the dispatch table
_NEGATE = """
from gghecke import formulas
_init = formulas.ClosedForms.__init__
def __init__(self, tag, F, tr):
    _init(self, tag, F, tr)
    if tag == {tag!r}:
        form = self._forms[0, 0, 0]
        self._forms[0, 0, 0] = lambda i, j, k: [-n for n in form(i, j, k)]
formulas.ClosedForms.__init__ = __init__
"""

# cyclo.root_sum without its b/z term, for every caller: the closed forms look
# it up per call, and the count tables are built through it
_ROOT_SUM_NO_B = """
from gghecke import cyclo
_root_sum = cyclo.root_sum
def root_sum(field, roots, a, b, a2=0, b2=0):
    return _root_sum(field, roots, a, 0, a2, b2)
cyclo.root_sum = root_sum
"""

# the first entry of every subexpression with its trace dv one off, as the
# rep-table build reads rep_entries
_DV_OFF = """
from gghecke import hecke
_rep_entries = hecke.rep_entries
def rep_entries(sub, field):
    for n, (t0, tmu, (dv, *rest)) in enumerate(_rep_entries(sub, field)):
        yield t0, tmu, (dv + (n == 0), *rest)
hecke.rep_entries = rep_entries
"""

# sigma_a, zeta^r -> zeta^(a r), applied to every closed-form value
_SIGMA = """
from gghecke import hecke
from gghecke.cyclo import CycloNum
_table_formula = hecke.HeckeAlgebra.table_formula
def table_formula(self, i, j, k):
    c = _table_formula(self, i, j, k)
    counts = [0] * c.p
    for r, n in enumerate(c):
        counts[{a} * r % c.p] += n
    return CycloNum.from_zeta_counts(c.p, counts)
hecke.HeckeAlgebra.table_formula = table_formula
"""

# one sign of the engine's table flipped; every group reads it at construction
_ETA_FLIP = """
from gghecke import chevalley
chevalley._ETA[{tag!r}][{key}] *= -1
"""

# the module executed from its source with one snippet replaced
_REPLACE = """
import sys, types
import gghecke
path, name = {path!r}, {name!r}
with open(path, encoding="utf-8") as fh:
    text = fh.read().replace({old!r}, {new!r})
mod = types.ModuleType("gghecke." + name)
mod.__file__, mod.__package__ = path, "gghecke"
exec(compile(text, path, "exec"), mod.__dict__)
sys.modules["gghecke." + name] = mod
setattr(gghecke, name, mod)
"""


def _digests(*names):
    return [f"tests/test_formula_digests.py::test_closed_forms_match_recorded_digests[{n}]"
            for n in names]


def _replace(old, new, module="formulas"):
    """The plugin and seam of module gghecke.<module> with old replaced by new."""
    path = PACKAGE / f"{module}.py"
    return _REPLACE.format(path=str(path), name=module, old=old, new=new), (path, old)


def _engine(*names):
    return [f"tests/test_chevalley.py::{n}" for n in names]


def _fast(*names):
    return [f"tests/test_hecke.py::{n}" for n in names]


ASSOCIATE = "tests/test_invariants.py::test_closed_forms_associate"
GENERATION = "tests/test_invariants.py::test_closed_forms_satisfy_generation_identity"
COUNTS = "tests/test_cyclo.py::test_count_tables_match_direct_counts"
# name -> (plugin source, (source file, snippet it replaces) or None, ids that must fail)
MUTANTS = {
    "A2 (0,0,0) negated": (_NEGATE.format(tag="A2"), None,
                           _digests("A2-4", "A2-7", "A2-25") + [f"{ASSOCIATE}[A2]"]),
    "B2 (0,0,0) negated": (_NEGATE.format(tag="B2"), None,
                           _digests("B2-5", "B2-9", "B2-25") + [f"{ASSOCIATE}[B2]"]),
    "B2 (0,0,0) branch three rotated by one": (*_replace(
        "acc += klp[um[ka][kb]][(tr2[t2] + tr1[t] + trm[ti]) % p]",
        "acc += klp[um[ka][kb]][(tr2[t2] + tr1[t] + trm[ti] + 1) % p]"),
        _digests("B2-5", "B2-25")),
    "B2 (0,1,0) inv(c2) -> F.of(2)": (*_replace(
        "N[A[M[M[a1][b1]][I[M[a3c2][b3]]]][I[c2]]]",
        "N[A[M[M[a1][b1]][I[M[a3c2][b3]]]][two]]"),
        _digests("B2-5", "B2-25")),
    "B2 (0,1,0) b1 b3 = c2 -> b1 b3 = -c2": (*_replace(
        "M[b1][b3] == c2", "M[b1][b3] == N[c2]"),
        _digests("B2-5", "B2-25")),
    # the twist keeps the closed forms' duality and associativity; characteristic 2 has no
    # a != 1 in F_p^x, so the generation identity fails at odd q only
    "table_formula twisted by sigma_2": (_SIGMA.format(a=2), None,
                                         [f"{GENERATION}[A2-{q}]" for q in (7, 9, 11)]),
    "root_sum without b/z": (_ROOT_SUM_NO_B, None,
                             _digests("A2-4", "B2-5", "B2-25")
                             + [f"{COUNTS}[q5]", f"{COUNTS}[q8]"]),
    # t0 = (1, 1) in characteristic 2, so the fast path's ids are at odd q; the twist's
    # also at q = 4, as only at q = 2 is every g_x(r) = (1, 1)
    "t0 dropped from the folded tails": (*_replace(
        "pk[M[s1][w1]][M[s2][w2]]", "pk[w1][w2]", "hecke"),
        _fast("test_fast_agrees_with_direct[A2-3]", "test_fast_agrees_with_direct[B2-3]",
              "test_multiply_agrees_with_direct[A2-q0]", "test_multiply_agrees_with_direct[B2-q2]")),
    "ratio twist dropped from the heads": (*_replace(
        "pk[g1[u1]][g2[u2]]", "pk[u1][u2]", "hecke"),
        _fast("test_fast_agrees_with_direct[A2-3]", "test_fast_agrees_with_direct[B2-3]",
              "test_multiply_agrees_with_direct[A2-q0]", "test_multiply_agrees_with_direct[A2-q1]",
              "test_multiply_agrees_with_direct[B2-q2]")),
    "route grid read transposed in the ratio join": (*_replace(
        "grid[r1[c1]][r2[c2]]", "grid[r2[c2]][r1[c1]]", "hecke"),
        _fast("test_unit_is_an_identity", "test_multiply_agrees_with_direct[A2-q0]",
              "test_multiply_agrees_with_direct[B2-q2]", "test_single_constant_miss_is_zero")
        + ["tests/test_invariants.py::test_multiply_commutes_on_every_pair[A2-4]"]),
    # the ratio -> key map multiplying by tx*cy, not dividing: the two agree where (tx*cy)^2 = 1
    "ratio -> key map multiplying in the one join": (*_replace(
        "rows[self.F._inv[x1]], rows[self.F._inv[x2]]", "rows[x1], rows[x2]", "hecke"),
        _fast("test_multiply_agrees_with_direct[A2-q1]", "test_multiply_drops_zero_constants",
              "test_single_constant_miss_is_zero")
        + [f"tests/test_invariants.py::{n}" for n in (
            "test_multiply_commutes_on_every_pair[A2-4]",
            "test_torus_twist_maps_constants_by_sigma_a[B2-5]")]),
    # vectors that differ only in the top count share the first one's constant
    "count vector keyed without its top count": (*_replace(
        "tuple(counts)", "tuple(counts[:-1])", "hecke"),
        _fast("test_fast_agrees_with_direct[A2-2]", "test_fast_agrees_with_direct[A2-3]",
              "test_fast_agrees_with_direct[B2-3]", "test_multiply_agrees_with_direct[A2-q0]",
              "test_multiply_agrees_with_direct[B2-q2]",
              "test_fast_path_folds_each_count_vector_once[A2]")),
    "one entry's dv off by one": (_DV_OFF, None, _fast(
        "test_fast_agrees_with_direct[A2-2]", "test_fast_agrees_with_direct[A2-3]",
        "test_fast_agrees_with_direct[B2-3]", "test_multiply_agrees_with_direct[A2-q1]")),
    # characteristic 2 cannot see a sign, so the engine's ids are at odd q
    "A2 eta (2,1) flipped": (_ETA_FLIP.format(tag="A2", key=(2, 1)), None, _engine(
        "test_eta_tables_are_stable", "test_group_axioms_on_random_words",
        "test_normal_form_matches_adjoint[A2-fq0-150]", "test_splits_match_adjoint[A2-fq2]")),
    "B2 eta (1,3) flipped": (_ETA_FLIP.format(tag="B2", key=(1, 3)), None, _engine(
        "test_eta_tables_are_stable", "test_normal_form_matches_adjoint[B2-fq2-150]",
        "test_normal_form_matches_adjoint[B2-fq3-60]", "test_normal_form_matches_adjoint[B2-fq5-60]",
        "test_normal_form_from_start[B2-5]", "test_splits_match_adjoint[B2-fq1]")),
}


def _pytest(ids, plugin_dir=None):
    """Run the ids in a fresh pytest process, with the plugin `mutant` in
    plugin_dir when given; the ids reported as failed, and the output."""
    paths = [str(ROOT / "src")] + ([str(plugin_dir)] if plugin_dir else [])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    plugin = ["-p", "mutant"] if plugin_dir else []
    cmd = [sys.executable, "-m", "pytest", *plugin, "-q", "-rf", "-p", "no:cacheprovider", *ids]
    out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    failed = {line.split()[1] for line in out.stdout.splitlines() if line.startswith("FAILED ")}
    return failed, out.stdout[-3000:] + out.stderr[-3000:]


@pytest.mark.slow
@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_fails_its_tests(name, tmp_path):
    plugin, seam, ids = MUTANTS[name]
    if seam is not None:
        path, old = seam
        assert path.read_text(encoding="utf-8").count(old) == 1, f"seam moved: {old}"
    (tmp_path / "mutant.py").write_text(plugin, encoding="utf-8")
    failed, report = _pytest(ids, tmp_path)
    assert failed == set(ids), report


@pytest.mark.slow
def test_census_tests_pass_unmutated():
    ids = sorted({i for _, _, ids in MUTANTS.values() for i in ids})
    failed, report = _pytest(ids)
    assert not failed and "passed" in report and "error" not in report, report

"""The immutable records of rootsys, intersect and hecke, and what importing
the package loads."""
import ast
import copy
import os
import pickle
import subprocess
import sys

import pytest

import gghecke
from gghecke.chevalley import chevalley_group
from gghecke.gf import make_field
from gghecke.hecke import BasisElem
from gghecke.intersect import (
    CosetRep,
    MuAssignment,
    Subexpr,
    build_rep,
    distinguished_subexprs,
)
from gghecke.rootsys import RootSystem, WeylElem, root_system, weyl_group

_A2_REP = (
    "CosetRep(j=Subexpr([1, 2], CC), mu=MuAssignment([1, 1]),"
    " g=GroupElem(u=(0, 0, 0), t=(1, 1), w=12, u2=(0, 0, 0)),"
    " uxu=(GroupElem(u=(0, 0, 0), t=(1, 1), w=e, u2=(0, 0, 0)),"
    " GroupElem(u=(0, 0, 0), t=(1, 1), w=12, u2=(0, 0, 0)),"
    " GroupElem(u=(0, 0, 0), t=(1, 1), w=e, u2=(0, 0, 0))),"
    " zuy=(GroupElem(u=(0, 0, 0), t=(1, 1), w=12, u2=(0, 0, 0)),"
    " GroupElem(u=(0, 0, 0), t=(1, 1), w=e, u2=(0, 0, 0)),"
    " GroupElem(u=(0, 0, 0), t=(1, 1), w=e, u2=(0, 0, 0))),"
    " t_mu=(1, 1), t_zero=(1, 1), head_x=(0, 0, 0), tail_x=(0, 0, 0),"
    " head_z=(0, 0, 0), tail_z=(0, 0, 0))"
)


def _sub():
    """The one distinguished subexpression of x = w_1, y = e, z = w_1 in A2."""
    W = weyl_group("A2")
    _, w1, _, w3 = W.basis_elements()
    (sub,) = distinguished_subexprs(w1, w3, w1)
    return sub


def _cases():
    """record -> (two equal, not identical objects; an unequal one; the repr
    of the first; the fields in constructor order)."""
    F = make_field(2)
    W = weyl_group("A2")
    w = W.basis_elements()[0]
    sub = _sub()
    rep = build_rep(sub, MuAssignment(F, (1, 1)))
    rep_fields = ("j", "mu", "g", "uxu", "zuy", "t_mu", "t_zero",
                  "head_x", "tail_x", "head_z", "tail_z")
    rs = root_system("A2")
    twin_rep = [getattr(rep, n) for n in rep_fields]
    return {
        "RootSystem": ((root_system("A2"), RootSystem("A2", rs.pos, rs.cartan)), root_system("B2"),
                       "RootSystem(tag='A2', pos=((1, 0), (0, 1), (1, 1)),"
                       " cartan=((2, -1), (-1, 2)))", ("tag", "pos", "cartan")),
        # equal by the permutation alone, whatever the word
        "WeylElem": ((WeylElem(w.perm, w.word), WeylElem(w.perm, (2, 1, 2))), W.identity,
                     "WeylElem(121)", ("perm", "word")),
        "BasisElem": ((BasisElem(0, (1, 2)), BasisElem(0, [1, 2])), BasisElem(0, (2, 1)),
                      "e0(1,2)", ("kind", "params")),
        "Subexpr": ((sub, Subexpr("A2", sub.x, sub.y, sub.z, tuple(list(sub.jvec)), "CC")),
                    Subexpr("A2", sub.x, sub.y, sub.z, (1, 0), "CB"), "Subexpr([1, 2], CC)",
                    ("tag", "x", "y", "z", "jvec", "types")),
        "MuAssignment": ((MuAssignment(F, (1, 1)), MuAssignment(F, tuple([1, 1]))),
                         MuAssignment(F, (0, 1)), "MuAssignment([1, 1])", ("field", "values")),
        "CosetRep": ((rep, CosetRep(*twin_rep)), CosetRep(*twin_rep[:-1], (1, 0, 0)),
                     _A2_REP, rep_fields),
    }


@pytest.mark.parametrize("name", list(_cases()))
def test_record_is_an_immutable_value(name):
    (a, b), other, text, fields = _cases()[name]
    assert type(a).__name__ == name
    assert a is not b and a == b and hash(a) == hash(b)
    assert not a != b
    assert a != other and len({a, b, other}) == 2
    assert a != tuple(getattr(a, n) for n in fields)
    assert repr(a) == text
    for n in fields:
        with pytest.raises(AttributeError):
            setattr(a, n, getattr(b, n))
        with pytest.raises(AttributeError):
            delattr(a, n)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b  # nothing above changed a
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and hash(twin) == hash(a) and repr(twin) == text


def test_group_elem_copies_and_pickles():
    # a GroupElem is rebuilt on the one cached engine of its (type, field),
    # over a field given by value; the copy is as immutable as the original
    G = chevalley_group("B2", make_field(3, 2))
    g = G.multiply(G.lift(G.W.basis_elements()[0]), G.torus(2, 3), G.unipotent((1, 0, 4, 0)))
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin == g and hash(twin) == hash(g) and repr(twin) == repr(g)
        assert twin.group is G
        assert G.multiply(twin, G.invert(g)) == G.identity()
        with pytest.raises(AttributeError):
            twin.u = g.u
    assert pickle.loads(pickle.dumps(G)) is G and copy.deepcopy(G) is G


def test_build_rep_cache_hits_on_equal_keys():
    F = make_field(2)
    sub = _sub()
    first = build_rep(sub, MuAssignment(F, (1, 1)))
    hits = build_rep.cache_info().hits
    twin = Subexpr(sub.tag, sub.x, sub.y, sub.z, tuple(list(sub.jvec)), sub.types)
    assert twin is not sub
    assert build_rep(twin, MuAssignment(F, (1, 1))) is first
    assert build_rep.cache_info().hits == hits + 1


_ADDED = (
    "import sys; before = set(sys.modules); import {module};"
    " print(' '.join(sorted(set(sys.modules) - before)))"
)


_SRC = os.path.dirname(os.path.dirname(os.path.abspath(gghecke.__file__)))


def _fresh(code: str) -> list:
    """The words that code prints in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": _SRC}
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout.split()


@pytest.mark.parametrize(
    "module,absent",
    [
        ("gghecke.hecke", {"dataclasses", "inspect", "multiprocessing", "gghecke.formulas"}),
        ("gghecke.cli", {"multiprocessing", "gghecke.formulas", "gghecke.oracle"}),
    ],
)
def test_import_loads_no_heavy_modules(module, absent):
    # a fresh interpreter, compared before and after the import, so whatever
    # site preloads does not count; the CLI imports multiprocessing only where
    # verify-tables starts workers, the closed forms only where one is asked
    # for, and the brute-force oracle only for verify-oracle
    out = _fresh(_ADDED.format(module=module))
    assert module in out
    assert not absent & ({m.partition(".")[0] for m in out} | set(out)), out


_RUN = (
    "import sys; from gghecke.cli import run;"
    " rc = run({argv!r}); print(rc, {module!r} in sys.modules)"
)

_CONSTANTS_RUN = ["constants", "--type", "B2", "--q", "3", "--out", os.devnull]


@pytest.mark.parametrize(
    "argv,loaded",
    [
        (_CONSTANTS_RUN, "False"),
        (["verify-tables", "--type", "B2", "--q", "3", "--jobs", "1", "--out", os.devnull], "True"),
    ],
)
def test_only_closed_forms_load_the_formulas(argv, loaded):
    assert _fresh(_RUN.format(argv=argv, module="gghecke.formulas")) == ["0", loaded]


@pytest.mark.parametrize(
    "argv,loaded",
    [
        (_CONSTANTS_RUN, "False"),
        (["verify-oracle", "--type", "A2", "--q", "2", "--out", os.devnull], "True"),
    ],
    ids=["constants", "verify-oracle"],
)
def test_only_verify_oracle_loads_the_oracle(argv, loaded):
    assert _fresh(_RUN.format(argv=argv, module="gghecke.oracle")) == ["0", loaded]


def test_formulas_import_no_other_route():
    # the closed forms are a route of their own: they may read the field and
    # the cyclotomic arithmetic, never intersect, chevalley or hecke
    path = os.path.join(_SRC, "gghecke", "formulas.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                found.add(node.module)
            elif node.module:
                found.add(f"gghecke.{node.module}")
            else:
                found.update(f"gghecke.{a.name}" for a in node.names)
    assert found and found <= {"gghecke.cyclo", "gghecke.gf"}, found

"""Malformed JSON input: the loaders reject it with a ValueError that names
the field, so every CLI verb prints one line and exits 1."""

import contextlib
import copy
import io
import json
import os
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from uqslcat.category import IndecLabel
from uqslcat.cli import MAX_FAMILY_SIZE, run
from uqslcat.cyclotomic import MAX_EXPONENT, CycField, CycNum
from uqslcat.kronecker import QuiverRep, canonical_rep
from uqslcat.qmodules import MAX_P, CP1, QMod, build_o1, irreducible

MODULE = irreducible(2, 1, 2).to_json()
GLUED = build_o1(3, 1, 1, CP1.of(3, 1, 1)).to_json()
QUIVER = canonical_rep(CycField(6), "regular", 2, CP1.of(3, 1, 1)).to_json()
ONE = CycField(4).one.to_json()


def run_file(verb, doc):
    """Run a CLI verb on the document; returns (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([verb, "--input", path])
    return code, out.getvalue(), err.getvalue()


def _with(doc, **changes):
    doc = copy.deepcopy(doc)
    for key, value in changes.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    return doc


E_ENTRY = MODULE["E"][0][2]
BAD_MODULES = {
    "negative index": (_with(MODULE, E=[[-2, -1, E_ENTRY]]), "'E'"),
    "index out of range": (_with(MODULE, E=[[5, 0, E_ENTRY]]), "'E'"),
    "duplicate entry": (_with(MODULE, E=MODULE["E"] * 2), "'E'"),
    "missing weights": (_with(MODULE, weights=None), "'weights'"),
    "number without coeffs": (_with(MODULE, E=[[0, 1, {"order": 4}]]), "'coeffs'"),
    "zero weight": (_with(MODULE, weights=[MODULE["weights"][0], CycField(4).zero.to_json()], K=[]),
                    "'weights'"),
}
BAD_QUIVERS = {
    "empty arrow row": (_with(QUIVER, r=[[]]), "'r'"),
    "ragged arrow rows": (_with(QUIVER, rbar=[QUIVER["rbar"][0], QUIVER["rbar"][1][:1]]), "'rbar'"),
    "negative dimension": (_with(QUIVER, d0=-1), "'d0'"),
}


@pytest.mark.parametrize("case", sorted(BAD_MODULES))
def test_module_loader_rejects(case):
    doc, field = BAD_MODULES[case]
    with pytest.raises(ValueError, match=field):
        QMod.from_json(doc)
    code, out, err = run_file("verify", doc)
    assert code == 1 and not out and len(err.splitlines()) == 1 and field in err


@pytest.mark.parametrize("case", sorted(BAD_QUIVERS))
def test_quiver_loader_rejects(case):
    doc, field = BAD_QUIVERS[case]
    with pytest.raises(ValueError, match=field):
        QuiverRep.from_json(doc)
    code, out, err = run_file("kron-classify", doc)
    assert code == 1 and not out and len(err.splitlines()) == 1 and field in err


@pytest.mark.parametrize("doc, field", [
    ({"coeffs": ["1", "0"]}, "'order'"),
    ({"order": 4}, "'coeffs'"),
    ({"order": 4, "coeffs": ["1"]}, "'coeffs'"),
    ({"order": 2 ** 64, "coeffs": ["1", "0"]}, "'coeffs'"),
    ({"order": 4, "coeffs": ["1", "1/0"]}, "'coeffs'"),
    ({"order": 0, "coeffs": []}, "'order'"),
])
def test_number_loader_rejects(doc, field):
    with pytest.raises(ValueError, match=field):
        CycNum.from_json(doc)


def test_module_loader_rejects_a_huge_p_before_building_its_field():
    # the field Q(zeta_2p) was built first: this ended in MemoryError
    start = time.process_time()
    with pytest.raises(ValueError, match="'p'"):
        QMod.from_json({"p": 50000, "dim": 0, "weights": [], "E": [], "F": []})
    assert time.process_time() - start < 1
    assert QMod.from_json({"p": MAX_P, "dim": 0, "weights": [], "E": [], "F": []}).p == MAX_P


def test_number_loader_takes_only_integer_or_fraction_strings():
    # exponent notation once loaded "1e99999" as a 332,190-bit integer
    for coeff in ("1e99999", "0.5", " 1", "1_0", 1):
        with pytest.raises(ValueError, match="'coeffs'"):
            CycNum.from_json({"order": 4, "coeffs": [coeff, "0"]})
    assert CycNum.from_json({"order": 4, "coeffs": ["-3/4", "2"]}) == CycField(4).from_coeffs([Fraction(-3, 4), 2])


def test_label_exponent_above_the_bound_fails_cleanly(capsys):
    for label in (f"O+:1:1:q^{MAX_EXPONENT + 1}/1", f"O+:1:1:(q^2)^{MAX_EXPONENT // 2 + 1}/1"):
        code = run(["build", "--p", "2", "--family", label])
        out, err = capsys.readouterr()
        assert code == 1 and not out and len(err.splitlines()) == 1 and str(MAX_EXPONENT) in err
    assert run(["build", "--p", "2", "--family", f"O+:1:1:q^{MAX_EXPONENT}/1"]) == 0


def test_family_size_above_the_bound_fails_cleanly(capsys, monkeypatch):
    # W+:1:100000 at p = 2 once went on to allocate dense 2e5 x 2e5 matrices
    built, rebuild = [], IndecLabel.rebuild
    monkeypatch.setattr(IndecLabel, "rebuild", lambda self, p: built.append(str(self)) or rebuild(self, p))
    n = MAX_FAMILY_SIZE + 1
    for label in (f"W+:1:{n}", f"M-:1:{n}", f"O+:1:{n}:1/0", "W+:1:100000"):
        code = run(["build", "--p", "2", "--family", label])
        out, err = capsys.readouterr()
        assert code == 1 and not out and len(err.splitlines()) == 1 and str(MAX_FAMILY_SIZE) in err
    assert not built
    assert run(["build", "--p", "2", "--family", f"W+:1:{MAX_FAMILY_SIZE}"]) == 0
    assert built == [f"W+_1({MAX_FAMILY_SIZE})"]


def test_valid_files_still_load():
    assert run_file("verify", MODULE)[0] == 0
    assert run_file("verify", GLUED)[0] == 0
    assert run_file("kron-classify", QUIVER)[0] == 0
    assert CycNum.from_json(ONE) == CycField(4).one


# -- fuzzing the loaders through the CLI ----------------------------------------


def _locations(node, path=()):
    if path:
        yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _locations(value, path + (key,))


def _mutate(doc, data):
    """Drop keys, negate or overflow integers (indices, sizes, orders),
    duplicate list entries, or change a coefficient count."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_locations(doc))
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key, value = path[-1], parent[path[-1]]
        op = data.draw(st.sampled_from(["drop", "negate", "overflow", "duplicate", "coeffs"]))
        if op == "drop":
            del parent[key]
        elif op == "negate" and type(value) is int:
            parent[key] = -value - 1
        elif op == "overflow" and type(value) is int:
            parent[key] = value + data.draw(st.sampled_from([1, 3, 2 ** 31, 2 ** 64]))
        elif op == "duplicate" and isinstance(value, list) and value:
            value.append(copy.deepcopy(data.draw(st.sampled_from(value))))
        elif op == "coeffs" and isinstance(value, dict) and "coeffs" in value:
            value["coeffs"] = value["coeffs"][:-1] if data.draw(st.booleans()) else value["coeffs"] + ["1"]
    return doc


def _assert_clean(verb, doc):
    code, _, err = run_file(verb, doc)
    assert code in (0, 1), err
    assert len(err.splitlines()) <= 1, err


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_fuzzed_module_files_fail_cleanly(data):
    for base in (MODULE, GLUED):
        _assert_clean("verify", _mutate(base, data))


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_fuzzed_quiver_files_fail_cleanly(data):
    _assert_clean("kron-classify", _mutate(QUIVER, data))

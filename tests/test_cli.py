import hashlib
import json
import os
from pathlib import Path

import pytest

from uqslcat import cli
from uqslcat.cli import MAX_DEGREE, run
from uqslcat.cyclotomic import CycField, InternalError
from uqslcat.kronecker import ClassificationError
from uqslcat.qmodules import QMod, verify_module

DATA = Path(__file__).parent / "data"


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ext_example(capsys):
    code, out, _ = run_capture(capsys, ["ext", "--p", "2", "--from", "X+:1", "--to", "X-:1", "--deg", "1"])
    assert code == 0 and out.strip() == "2"


def test_center_example(capsys):
    code, out, _ = run_capture(capsys, ["center", "--p", "3"])
    assert code == 0 and out.strip() == "8"


def test_decompose_regular_from_file(tmp_path, capsys):
    reg = tmp_path / "reg.json"
    code, _, _ = run_capture(capsys, ["build", "--p", "2", "--family", "Reg", "--output", str(reg)])
    assert code == 0
    code, out, _ = run_capture(capsys, ["decompose", "--p", "2", "--input", str(reg), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    got = {(e["label"], e.get("n")): e["mult"] for e in payload["entries"]}
    assert got == {("P+_1", None): 1, ("P-_1", None): 1, ("X+_2", None): 2, ("X-_2", None): 2}


def test_build_roundtrips_exactly(tmp_path, capsys):
    out_file = tmp_path / "mod.json"
    code, _, _ = run_capture(capsys, ["build", "--p", "3", "--family", "O-:1:2:1/q", "--output", str(out_file)])
    assert code == 0
    data = json.loads(out_file.read_text())
    m = QMod.from_json(data)
    assert verify_module(m).ok and m.dim == 6
    # serialization is lossless
    assert m.to_json() == data


def test_text_and_json_agree(capsys):
    code, text_out, _ = run_capture(capsys, ["hom", "--p", "2", "--from", "P+:1", "--to", "P+:1"])
    assert code == 0
    code, json_out, _ = run_capture(capsys, ["hom", "--p", "2", "--from", "P+:1", "--to", "P+:1", "--format", "json"])
    assert code == 0
    assert int(text_out.strip()) == json.loads(json_out)["dim"] == 2


def test_resolve_rejects_a_negative_length(capsys):
    code, out, err = run_capture(capsys, ["resolve", "--p", "2", "--family", "X+:1", "--length", "-1"])
    assert code == 1 and out == "" and err == "error: length must be >= 0\n"


def test_resolve(capsys):
    code, out, _ = run_capture(capsys, ["resolve", "--p", "2", "--family", "X+:1", "--length", "3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert [t["dim"] for t in payload["terms"]] == [4, 8, 12, 16]


def test_yoneda_words(capsys):
    code, out, _ = run_capture(capsys, ["yoneda", "--p", "2", "--s", "1", "--word", "x-:1,x+:1"])
    assert code == 0 and "nonzero" in out
    code, out, _ = run_capture(capsys, ["yoneda", "--p", "3", "--s", "1", "--word", "x-:1,x+:2", "--format", "json"])
    assert code == 0 and json.loads(out)["degree"] == 2


@pytest.mark.parametrize("word", ["x+:1,,x-:1", "x-:1,x+:1,", ",x+:1", "", " ", "x+:1, ,x-:1"])
def test_yoneda_word_with_an_empty_generator_exits_one(capsys, word):
    code, out, err = run_capture(capsys, ["yoneda", "--p", "2", "--s", "1", "--word", word])
    assert code == 1 and out == "" and err.count("\n") == 1 and "empty generator" in err, err


def test_kron_classify(tmp_path, capsys):
    from uqslcat.cyclotomic import CycField
    from uqslcat.kronecker import QuiverRep

    f = CycField(4)
    rep = QuiverRep(1, 1, [[f.one]], [[f.gen()]], f)
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep.to_json()))
    code, out, _ = run_capture(capsys, ["kron-classify", "--input", str(path), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"] == [{"kind": "regular", "n": 1, "mult": 1, "z": ["1", "q"]}]


def test_verify_module_and_hopf(capsys):
    code, out, _ = run_capture(capsys, ["verify", "--p", "3", "--family", "W-:2:2"])
    assert code == 0 and "hold" in out
    code, out, _ = run_capture(capsys, ["verify", "--p", "2", "--hopf"])
    assert code == 0 and "all axioms pass" in out


@pytest.mark.parametrize("argv, flag", [(["verify", "--hopf"], "--hopf"), (["verify", "--family", "X+:1"], "--family"),
                                        (["decompose", "--family", "Reg"], "--family"),
                                        (["blocks", "--family", "X+:1"], "--family")])
def test_a_missing_p_exits_one_with_one_line(capsys, argv, flag):
    code, out, err = run_capture(capsys, argv)
    assert code == 1 and out == "" and err == f"error: {flag} needs --p\n"


def test_domain_errors_exit_one(capsys):
    code, _, err = run_capture(capsys, ["build", "--p", "3", "--family", "X+:4"])
    assert code == 1 and "1 <= s <= p" in err
    code, _, err = run_capture(capsys, ["build", "--p", "3", "--family", "P+:3"])
    assert code == 1 and "p-1" in err
    code, _, err = run_capture(capsys, ["build", "--p", "2", "--family", "O+:1:1:0/0"])
    assert code == 1
    code, _, err = run_capture(capsys, ["decompose", "--p", "2", "--input", "/nonexistent.json"])
    assert code == 1


def test_p_bound_and_env_override(capsys, monkeypatch):
    code, _, err = run_capture(capsys, ["build", "--p", "7", "--family", "X+:1"])
    assert code == 1 and "bound" in err
    monkeypatch.setenv("UQSLCAT_MAX_P", "9")
    code, _, _ = run_capture(capsys, ["build", "--p", "7", "--family", "X+:1"])
    assert code == 0
    monkeypatch.delenv("UQSLCAT_MAX_P")
    code, _, _ = run_capture(capsys, ["build", "--p", "7", "--family", "X+:1", "--max-p", "8"])
    assert code == 0


def test_decompose_z_strings_roundtrip(tmp_path, capsys):
    # the z coordinates in decompose payloads are exact strings that
    # parse back to the same projective point
    from uqslcat.cyclotomic import parse_cyc
    from uqslcat.qmodules import CP1

    mod_file = tmp_path / "o.json"
    code, _, _ = run_capture(capsys, ["build", "--p", "3", "--family", "O-:2:3:2/1+q", "--output", str(mod_file)])
    assert code == 0
    code, out, _ = run_capture(capsys, ["decompose", "--p", "3", "--input", str(mod_file), "--format", "json"])
    assert code == 0
    (entry,) = json.loads(out)["entries"]
    assert entry["label"] == "O-_2" and entry["n"] == 3 and entry["mult"] == 1
    z1, z2 = (parse_cyc(t, 6) for t in entry["z"])
    assert CP1(z1, z2) == CP1.of(3, 2, parse_cyc("1+q", 6))


def test_blocks_command(capsys):
    code, out, _ = run_capture(capsys, ["blocks", "--p", "2", "--family", "Reg", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["blocks"] == [{"s": 0, "dim": 4}, {"s": 1, "dim": 8}, {"s": 2, "dim": 4}]


def test_blocks_checks_its_input(tmp_path, capsys):
    # a file where E swaps the weights q and q^-1 at p = 2 respects the
    # weights but has E^2 != 0: blocks said its columns did not span a
    # submodule, and a weight off the roots of unity exited 2
    field = CycField(4)
    one, q = field.one.to_json(), field.gen()
    swap = {"p": 2, "dim": 2, "weights": [q.to_json(), q.inv().to_json()],
            "E": [[0, 1, one], [1, 0, one]], "F": []}
    off_roots = {"p": 2, "dim": 1, "weights": [field.from_fraction(2).to_json()], "E": [], "F": []}
    for doc, message in ((swap, "error: not a module: ['E^p != 0', "), (off_roots, "'weights'")):
        path = tmp_path / "module.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_capture(capsys, ["blocks", "--input", str(path)])
        assert code == 1 and out == "" and err.count("\n") == 1 and message in err, err


def test_degrees_above_the_bound_exit_one(capsys):
    too_high = str(MAX_DEGREE + 1)
    for argv, what in (
        (["ext", "--p", "2", "--from", "X+:1", "--to", "X+:1", "--deg", too_high], f"degree {too_high}"),
        (["ext", "--p", "2", "--from", "X+:1", "--to", "X+:1", "--deg", "100000"], "degree 100000"),
        (["resolve", "--p", "2", "--family", "X+:1", "--length", too_high], f"length {too_high}"),
        (["resolve", "--p", "2", "--family", "X+:1", "--length", "100000"], "length 100000"),
        (["yoneda", "--p", "2", "--s", "1", "--word", ",".join(["x+:1"] * 600)], "word length 600"),
    ):
        code, out, err = run_capture(capsys, argv)
        assert code == 1 and out == "" and err == f"error: {what} exceeds the bound {MAX_DEGREE}\n"
    code, out, _ = run_capture(capsys, ["ext", "--p", "2", "--from", "X+:1", "--to", "X+:1", "--deg", str(MAX_DEGREE)])
    assert code == 0 and out.strip() == str(MAX_DEGREE + 1)


def test_bad_max_p_values_exit_one(capsys, monkeypatch):
    for bad in ("0", "1", "-3"):
        code, out, err = run_capture(capsys, ["build", "--p", "2", "--family", "X+:1", "--max-p", bad])
        assert code == 1 and out == "" and err == f"error: --max-p must be at least 2, got {bad}\n"
    monkeypatch.setenv("UQSLCAT_MAX_P", "abc")
    code, out, err = run_capture(capsys, ["build", "--p", "2", "--family", "X+:1"])
    assert code == 1 and out == "" and "UQSLCAT_MAX_P" in err and "'abc'" in err
    monkeypatch.setenv("UQSLCAT_MAX_P", "1")
    code, _, err = run_capture(capsys, ["build", "--p", "2", "--family", "X+:1"])
    assert code == 1 and err == "error: UQSLCAT_MAX_P must be at least 2, got 1\n"


@pytest.mark.parametrize("p, label", [(3, "X+: 3"), (3, "X+:٣"), (3, "W+:1:+2"), (11, "X+:1_0"),
                                      (3, "X+:abc"), (3, "O-:1:2 :1/q"), (3, "P+:")])
def test_label_numbers_are_plain_ascii_digits(capsys, p, label):
    code, out, err = run_capture(capsys, ["build", "--p", str(p), "--max-p", str(p), "--family", label])
    assert code == 1 and out == "" and err.count("\n") == 1 and repr(label) in err, err


def test_labels_with_plain_digits_build(capsys):
    for label, dim in (("X+:3", 3), ("W+:1:2", 4), ("O-:1:2:1/q", 6), ("P-:02", 6)):
        code, out, _ = run_capture(capsys, ["build", "--p", "3", "--family", label])
        assert code == 0 and out.startswith(f"{label} at p=3: dim {dim}\n"), out


@pytest.mark.parametrize("label", ["X+:" + "1" * 5000, "W+:1:" + "2" * 5000, "O+:1:1:" + "1" * 5000 + "/1",
                                   "O+:1:1:1/q^" + "9" * 5000])
def test_overlong_label_numbers_exit_one(capsys, label):
    """A number above int()'s 4300-digit limit once surfaced Python's own
    message, which named neither the label nor the field element."""
    code, out, err = run_capture(capsys, ["build", "--p", "3", "--family", label])
    assert code == 1 and out == "" and err.count("\n") == 1, err
    assert repr(label[:40]) in err and "5000 digits" in err and len(err) < 300, err


def test_numbers_up_to_the_digit_bound_parse(capsys):
    from uqslcat.cyclotomic import MAX_DIGITS
    long_one = "0" * (MAX_DIGITS - 1) + "1"
    for label in ("X+:" + long_one, "O+:1:1:" + long_one + "/1"):
        code, out, err = run_capture(capsys, ["build", "--p", "3", "--family", label])
        assert code == 0, err


@pytest.mark.parametrize("error", [InternalError, ClassificationError])
def test_internal_failures_exit_two_with_one_line(capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("a self-check did not hold")
    monkeypatch.setattr(cli, "verify_hopf", fail)
    code, out, err = run_capture(capsys, ["verify", "--p", "2", "--hopf"])
    assert code == 2 and out == "" and err == "internal failure: a self-check did not hold\n"


def family_labels(p):
    """Every family at p: each irreducible and projective cover, and the
    W, M and O families at small n with O at the Verma, contragredient and
    two generic points."""
    out = ["Reg"] + [f"X{c}:{s}" for c in "+-" for s in range(1, p + 1)]
    for c in "+-":
        for s in range(1, p):
            out += [f"P{c}:{s}", f"W{c}:{s}:2", f"M{c}:{s}:3"]
            out += [f"O{c}:{s}:{n}:{z}" for n, z in ((1, "1/0"), (1, "0/1"), (2, "1/q"), (1, "2/1+q"))]
    return out


def pinned_outputs(capsys):
    """(name, stdout) of build in text and JSON for every family label at
    p = 2..4 and of blocks --format json on Reg(3)."""
    runs = [(["build", "--p", str(p), "--family", label] + fmt)
            for p in (2, 3, 4) for label in family_labels(p) for fmt in ([], ["--format", "json"])]
    runs.append(["blocks", "--p", "3", "--family", "Reg", "--format", "json"])
    for argv in runs:
        code, out, err = run_capture(capsys, argv)
        assert code == 0, (argv, err)
        yield " ".join(argv), out


def test_build_and_blocks_outputs_are_pinned(capsys):
    # sha256 of each stdout, recorded before weights became exponents of q
    want = json.loads((DATA / "cli_sha256.json").read_text())
    got = {name: hashlib.sha256(out.encode()).hexdigest() for name, out in pinned_outputs(capsys)}
    assert got == want

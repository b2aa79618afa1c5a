import json
import os

import pytest

from uqslcat.cli import MAX_DEGREE, run
from uqslcat.qmodules import QMod, verify_module


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

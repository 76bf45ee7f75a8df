import contextlib
import io
import json
import os
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccybe import cli, families, rmatfile, search, ybe
from ccybe.exactpoly import MPoly


def write_rmat(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


E_X_E = {"algebra": "cur_sl2",
         "entries": [{"left": "e", "right": "e", "coeff": "1"}]}


# rmatfile round trips -----------------------------------------------------------


def test_rmatfile_roundtrip(tmp_path):
    r = rmatfile.from_dict({
        "algebra": "cur_sl2",
        "parameters": ["alpha"],
        "entries": [
            {"left": "h", "right": "e", "coeff": "alpha"},
            {"left": "e", "right": "h", "coeff": "-alpha"},
        ],
    })
    path = tmp_path / "r.json"
    path.write_text(json.dumps(rmatfile.to_dict(r, ["alpha"])))
    again = rmatfile.load(str(path))
    assert {k: v.to_string() for k, v in again.entries.items()} == \
        {k: v.to_string() for k, v in r.entries.items()}


def test_rmatfile_errors():
    with pytest.raises(rmatfile.RMatFileError, match="unknown algebra"):
        rmatfile.from_dict({"algebra": "sl3", "entries": []})
    with pytest.raises(rmatfile.RMatFileError, match="basis pair"):
        rmatfile.from_dict({"algebra": "vir",
                            "entries": [{"left": "e", "right": "v", "coeff": "1"}]})
    with pytest.raises(rmatfile.RMatFileError, match="undeclared"):
        rmatfile.from_dict({"algebra": "cur_sl2",
                            "entries": [{"left": "e", "right": "e", "coeff": "alpha"}]})
    with pytest.raises(rmatfile.RMatFileError, match="reserved"):
        rmatfile.from_dict({"algebra": "cur_sl2", "parameters": ["lam"],
                            "entries": []})
    with pytest.raises(rmatfile.RMatFileError, match="position"):
        rmatfile.from_dict({"algebra": "cur_sl2",
                            "entries": [{"left": "e", "right": "e", "coeff": "x^(-1)"}]})


@pytest.mark.parametrize("coeff, kind", [
    ({"a": 1}, "an object"), ([1], "an array"), (True, "a boolean"),
    (0.5, "a decimal number"), (None, "null"),
], ids=["object", "array", "boolean", "decimal", "null"])
def test_verify_coeff_type_refused(tmp_path, capsys, coeff, kind):
    # a coefficient is read as text only when it is a string or an integer
    path = write_rmat(tmp_path, "r.json", {
        "algebra": "cur_sl2", "entries": [{"left": "h", "right": "h", "coeff": coeff}]})
    assert cli.main(["verify", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: entry (h, h): coeff must be a string or an integer, "
                            f"got {kind}\n")


def test_verify_integer_coeff_accepted(tmp_path, capsys):
    as_int = write_rmat(tmp_path, "int.json", {
        "algebra": "cur_sl2", "entries": [{"left": "e", "right": "e", "coeff": 2}]})
    as_text = write_rmat(tmp_path, "text.json", {
        "algebra": "cur_sl2", "entries": [{"left": "e", "right": "e", "coeff": "2"}]})
    assert cli.main(["verify", as_int, "--mode", "weak", "--format", "json"]) == 0
    from_int = capsys.readouterr().out
    assert cli.main(["verify", as_text, "--mode", "weak", "--format", "json"]) == 0
    assert capsys.readouterr().out == from_int


def test_rmatfile_degree_limit():
    limit = rmatfile.MAX_SLOT_DEGREE
    assert limit == 64
    rmatfile.from_dict({"algebra": "cur_sl2", "entries": [
        {"left": "e", "right": "e", "coeff": f"d1^{limit}*d2^{limit}"}]})
    for coeff in (f"d1^{limit + 1}", f"d1 + d2^{limit + 1}"):
        with pytest.raises(rmatfile.RMatFileError, match="above the limit 64"):
            rmatfile.from_dict({"algebra": "vir", "entries": [
                {"left": "v", "right": "v", "coeff": coeff}]})


# verify ---------------------------------------------------------------------------


def test_verify_pass(tmp_path, capsys):
    path = write_rmat(tmp_path, "hh.json", {
        "algebra": "cur_sl2",
        "entries": [{"left": "h", "right": "h", "coeff": "d1"}]})
    assert cli.main(["verify", path, "--mode", "strict"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_invariance_failure_names_defect(tmp_path, capsys):
    path = write_rmat(tmp_path, "ee.json", E_X_E)
    code = cli.main(["verify", path, "--mode", "invariance"])
    out = capsys.readouterr().out
    assert code == 1
    assert "(e, e)" in out


def test_verify_parse_error(tmp_path, capsys):
    path = write_rmat(tmp_path, "bad.json", {
        "algebra": "cur_sl2",
        "entries": [{"left": "e", "right": "e", "coeff": "1 +"}]})
    assert cli.main(["verify", path]) == 2


def test_verify_exponent_literal_too_large(tmp_path, capsys):
    # Refused while parsing, before the power is computed.
    path = write_rmat(tmp_path, "big.json", {
        "algebra": "cur_sl2",
        "entries": [{"left": "h", "right": "h", "coeff": "d1^70000"}]})
    assert cli.main(["verify", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "below 32768" in err
    assert len(err.splitlines()) == 1


def test_verify_exponent_overflow_exit(tmp_path, capsys):
    # Each literal is in range; their product overflows the packed field.
    path = write_rmat(tmp_path, "big.json", {
        "algebra": "cur_sl2",
        "entries": [{"left": "h", "right": "h", "coeff": "d1^20000*d1^20000"}]})
    assert cli.main(["verify", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "d1" in err
    assert len(err.splitlines()) == 1


def test_verify_degree_above_limit(tmp_path, capsys):
    # Refused on load: the double bracket would expand (d1 + d2)^20000.
    path = write_rmat(tmp_path, "deep.json", {
        "algebra": "cur_sl2",
        "entries": [{"left": "h", "right": "h", "coeff": "d1^20000"}]})
    assert cli.main(["verify", path, "--mode", "weak"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "degree 20000 in d1" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("coeff, degree", [("(d1+d2)^20000", 20000),
                                           ("(d1+d2)^40*(d1+d2)^40", 80),
                                           ("alpha^65", 65)])
def test_verify_power_refused_before_expanding(tmp_path, capsys, monkeypatch,
                                               coeff, degree):
    # the parser refuses a power or product above the degree limit before
    # computing it, so no power above the limit is ever taken
    real_pow = MPoly.__pow__

    def bounded_pow(self, n):
        assert n <= rmatfile.MAX_SLOT_DEGREE, f"power {n} was computed"
        return real_pow(self, n)

    monkeypatch.setattr(MPoly, "__pow__", bounded_pow)
    path = write_rmat(tmp_path, "deep.json", {
        "algebra": "cur_sl2", "parameters": ["alpha"],
        "entries": [{"left": "h", "right": "h", "coeff": coeff}]})
    assert cli.main(["verify", path, "--mode", "weak"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"degree {degree} in" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("data", [
    {"algebra": "cur_sl2", "entries": ["x"]},
    {"algebra": "cur_sl2", "entries": {"left": "e", "right": "e", "coeff": "1"}},
    {"algebra": "cur_sl2", "parameters": ["1x"], "entries": []},
    {"algebra": "cur_sl2", "parameters": [3], "entries": []},
], ids=["entry_not_object", "entries_not_list", "bad_parameter_name",
        "parameter_not_string"])
def test_verify_malformed_file(tmp_path, capsys, data):
    path = write_rmat(tmp_path, "bad.json", data)
    assert cli.main(["verify", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("argv", [["verify", "--mode", "invariance"],
                                  ["verify", "--mode", "weak"],
                                  ["verify", "--mode", "strict"], ["expand"]],
                         ids=["invariance", "weak", "strict", "expand"])
@pytest.mark.parametrize("data, named", [
    ({"algebra": "cur_sl2", "entries": [{"left": "e", "right": "e", "coef": "d1"}]},
     "unknown key 'coef' in an entry"),
    ({"algebra": "cur_sl2", "entry": [{"left": "e", "right": "e", "coeff": "d1"}]},
     "unknown key 'entry' in the top level"),
    ({"algebra": "cur_sl2", "entries": [{"left": "e", "right": "e"}]},
     "entry (e, e) has no coeff"),
    ({"algebra": "cur_sl2"}, "the top level has no entries"),
    ({"entries": []}, "the top level has no algebra"),
    ({"algebra": "cur_sl2", "entries": [{"right": "e", "coeff": "d1"}]},
     "entry (?, e) has no left"),
], ids=["entry_key_typo", "top_level_key_typo", "entry_without_coeff", "no_entries",
        "no_algebra", "entry_without_left"])
def test_unknown_or_missing_key_refused(tmp_path, capsys, argv, data, named):
    # each of these files read as the zero r-matrix (or, without an
    # algebra, as an unknown algebra ''), and the zero r-matrix passed
    # every check with exit 0
    path = write_rmat(tmp_path, "r.json", data)
    assert cli.main([argv[0], path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert named in captured.err


@pytest.mark.parametrize("argv", [["verify", "--mode", "invariance"],
                                  ["verify", "--mode", "weak"],
                                  ["verify", "--mode", "strict"], ["expand"]],
                         ids=["invariance", "weak", "strict", "expand"])
def test_empty_entries_are_the_zero_rmatrix(tmp_path, capsys, argv):
    # an explicit empty list is the zero r-matrix, which passes
    path = write_rmat(tmp_path, "r.json", {"algebra": "cur_sl2", "entries": []})
    assert cli.main([argv[0], path, *argv[1:]]) == 0
    assert capsys.readouterr().err == ""


def test_repeated_entries_add():
    r = rmatfile.from_dict({"algebra": "cur_sl2", "entries": [
        {"left": "h", "right": "h", "coeff": "d1"},
        {"left": "h", "right": "h", "coeff": "1 - d1"}]})
    assert {k: v.to_string() for k, v in r.entries.items()} == {("h", "h"): "1"}


@pytest.mark.parametrize("command", ["verify", "expand"])
@pytest.mark.parametrize("content", [
    b"[" * 100000,
    b'{"algebra": "cur_sl2", "entries": ' + b"[" * 100000,
    b"\xff\xfe",
    json.dumps({"algebra": "cur_sl2", "entries": [
        {"left": "e", "right": "e", "coeff": "(" * 150 + "d1" + ")" * 150}]}).encode(),
    b'{"algebra": "cur_sl2", "entries": [{"left": "e", "right": "e", "coeff": 1'
    + b"0" * 5000 + b"}]}",
], ids=["deep_json", "deep_entries", "not_utf8", "deep_parentheses", "long_integer"])
def test_verify_unreadable_file_exit(tmp_path, capsys, command, content):
    # nesting beyond the JSON decoder's or the parser's recursion, an
    # integer literal longer than int() reads, and bytes that are not
    # UTF-8 are usage errors, not tracebacks
    path = tmp_path / "r.json"
    path.write_bytes(content)
    assert cli.main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_verify_json_format_hashed(tmp_path, capsys):
    path = write_rmat(tmp_path, "ee.json", E_X_E)
    cli.main(["verify", path, "--mode", "invariance", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert report["check"] == "invariance"
    assert len(report["content_hash"]) == 64
    cli.main(["verify", path, "--mode", "invariance", "--format", "json"])
    again = json.loads(capsys.readouterr().out)
    assert again == report


def test_verify_parametric_invariance(tmp_path, capsys):
    # the skew constant family with a formal parameter passes all three
    # checks symbolically straight from a file
    path = write_rmat(tmp_path, "skew.json", {
        "algebra": "cur_sl2",
        "parameters": ["alpha"],
        "entries": [
            {"left": "h", "right": "e", "coeff": "alpha"},
            {"left": "e", "right": "h", "coeff": "-alpha"},
        ],
    })
    for mode in ("invariance", "weak", "strict"):
        assert cli.main(["verify", path, "--mode", mode]) == 0
        capsys.readouterr()


def test_verify_json_golden(tmp_path, capsys):
    path = write_rmat(tmp_path, "ee.json", E_X_E)
    cli.main(["verify", path, "--mode", "invariance", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    with open(os.path.join(os.path.dirname(__file__), "data",
                           "verify_golden.json")) as fh:
        golden = json.load(fh)
    assert report == golden


def test_verify_vir_weak_residue(tmp_path, capsys):
    path = write_rmat(tmp_path, "vir.json", {
        "algebra": "vir",
        "entries": [{"left": "v", "right": "v", "coeff": "1"}]})
    code = cli.main(["verify", path, "--mode", "weak", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["specialized_residue"] == "-24*d2^2"
    assert report["specialized_residue_normalized"] == "-12*d2^2"


# expand ---------------------------------------------------------------------------


EXPAND_CASES = {
    "cur_sl2": ({"algebra": "cur_sl2", "entries": [
        {"left": "e", "right": "f", "coeff": "d1"},
        {"left": "h", "right": "h", "coeff": "1"}]},
        "reduced modulo the total derivation:\n"
        "  (e, f, h): -2*d3\n"
        "  (e, h, f): -d2*d3 - d3^2 - 2*d2 - 4*d3\n"
        "  (h, e, f): -2*d2 - 2*d3\n"),
    "vir": ({"algebra": "vir", "entries": [
        {"left": "v", "right": "v", "coeff": "d1 - d2"}]},
        "reduced modulo the total derivation:\n"
        "  (v, v, v): 8*d2^3 + 12*d2^2*d3 - 12*d2*d3^2 - 8*d3^3\n"),
    "e_x_f": ({"algebra": "cur_sl2", "entries": [{"left": "e", "right": "f", "coeff": "1"}]},
              "reduced modulo the total derivation:\n  (e, h, f): -1\n"),
    "zero": (E_X_E, "reduced modulo the total derivation:\n  0\n"),
}


@pytest.mark.parametrize("case", sorted(EXPAND_CASES))
def test_expand_output(tmp_path, capsys, case):
    # the whole stdout, pinned: the class, its triples in order, and
    # "0" for an empty one
    data, expected = EXPAND_CASES[case]
    assert cli.main(["expand", write_rmat(tmp_path, "r.json", data)]) == 0
    assert capsys.readouterr().out == expected


# catalog --------------------------------------------------------------------------


def test_catalog_ok(capsys):
    assert cli.main(["catalog", "--degree", "1"]) == 0
    assert "re-derived exactly" in capsys.readouterr().out


def test_catalog_fault_injection(monkeypatch, capsys):
    broken = dict(ybe.CATALOG)
    eq = ybe.CATALOG["hee"]
    flipped = tuple((-c, l, a1, r, a2) for c, l, a1, r, a2 in eq.terms)
    broken["hee"] = ybe.Equation("hee", eq.triple, flipped, eq.scale)
    monkeypatch.setattr(ybe, "CATALOG", broken)
    assert cli.main(["catalog", "--degree", "1"]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out and "hee" in out


def test_catalog_renamed_variable_detected(monkeypatch, capsys):
    # swapping an argument form changes the symbols of the stored identity
    broken = dict(ybe.CATALOG)
    eq = ybe.CATALOG["eee"]
    swapped = tuple(
        (c, l, (a1[1], a1[0], a1[2]), r, a2) for c, l, a1, r, a2 in eq.terms
    )
    broken["eee"] = ybe.Equation("eee", eq.triple, swapped, eq.scale)
    monkeypatch.setattr(ybe, "CATALOG", broken)
    assert cli.main(["catalog", "--degree", "1"]) == 1


def test_catalog_negative_degree(capsys):
    assert cli.main(["catalog", "--degree", "-1"]) == 2
    captured = capsys.readouterr()
    assert "re-derived" not in captured.out
    assert len(captured.err.splitlines()) == 1 and "--degree" in captured.err


@pytest.mark.parametrize("degree", [str(cli.MAX_CATALOG_DEGREE + 1), "100000"])
def test_catalog_degree_above_limit(monkeypatch, capsys, degree):
    # refused with exit 2 before any identity is re-derived
    def no_work(*args, **kwargs):
        raise AssertionError("the re-derivation was started")

    monkeypatch.setattr(ybe, "catalog_diffs", no_work)
    assert cli.main(["catalog", "--degree", degree]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "--degree" in captured.err
    assert str(cli.MAX_CATALOG_DEGREE) in captured.err


def test_catalog_degree_at_limit_accepted(monkeypatch):
    seen = []
    monkeypatch.setattr(ybe, "catalog_diffs", lambda degree: seen.append(degree) or {})
    assert cli.main(["catalog", "--degree", str(cli.MAX_CATALOG_DEGREE)]) == 0
    assert seen == [cli.MAX_CATALOG_DEGREE]


# family ---------------------------------------------------------------------------


def test_family_pipeline(tmp_path, capsys):
    out = str(tmp_path / "fam.json")
    assert cli.main(["family", "thm5_i", "--param", "alpha=0", "--param",
                     "beta=0", "--f", "t", "--out", out]) == 0
    data = json.loads(open(out).read())
    coeffs = {(e["left"], e["right"]): e["coeff"] for e in data["entries"]}
    assert coeffs[("e", "e")] == "d1^3"
    capsys.readouterr()
    assert cli.main(["verify", out, "--mode", "weak"]) == 0
    assert cli.main(["verify", out, "--mode", "invariance"]) == 0


def test_family_cor6_ii(tmp_path):
    out = str(tmp_path / "fam.json")
    assert cli.main(["family", "cor6_ii", "--param", "lhh=1", "--f", "1",
                     "--out", out]) == 0
    data = json.loads(open(out).read())
    assert data["entries"] == [{"left": "h", "right": "h", "coeff": "d1"}]
    assert cli.main(["verify", out, "--mode", "strict"]) == 0


def test_family_constraint_exit(tmp_path, capsys):
    out = str(tmp_path / "fam.json")
    code = cli.main(["family", "thm5_ii", "--param", "lhh=1", "--param",
                     "beta=0", "--param", "zeta=0", "--param", "gamma=1",
                     "--out", out])
    assert code == 2
    assert "gamma = 0" in capsys.readouterr().err


def test_family_spec_file(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "case": "thm5_ii",
        "params": {"lhh": "1", "beta": "2", "zeta": "1"},
        "f": "t + 1",
    }))
    out = str(tmp_path / "fam.json")
    assert cli.main(["family", "--spec", str(spec_path), "--out", out]) == 0
    capsys.readouterr()
    assert cli.main(["verify", out, "--mode", "weak"]) == 0
    assert cli.main(["verify", out, "--mode", "strict"]) == 1


def test_family_spec_unknown_key(tmp_path, capsys):
    # "F" for "f" left f = 1 in place and wrote a member with exit 0
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"case": "thm5_ii",
                                "params": {"lhh": "1", "beta": "2", "zeta": "1"},
                                "F": "t^2 + 1"}))
    out = tmp_path / "fam.json"
    assert cli.main(["family", "--spec", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "'F'" in err
    assert not out.exists()


def test_family_missing_spec(tmp_path, capsys):
    out = tmp_path / "fam.json"
    code = cli.main(["family", "--spec", str(tmp_path / "missing.json"),
                     "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert not out.exists()


def test_family_unwritable_out(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "fam.json"
    code = cli.main(["family", "thm5_ii", "--param", "lhh=1", "--param", "beta=2",
                     "--param", "zeta=1", "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert "wrote" not in captured.out
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("f", ["t^2+x", "t^2+lhh"])
def test_family_f_outside_t_rejected(tmp_path, capsys, f):
    out = tmp_path / "fam.json"
    code = cli.main(["family", "thm5_i", "--param", "alpha=1", "--param", "beta=2",
                     "--f", f, "--out", str(out)])
    assert code == 2
    assert "polynomial in t alone" in capsys.readouterr().err
    assert not out.exists()


def _thm5_ii_family(out, f):
    return cli.main(["family", "thm5_ii", "--param", "lhh=1", "--param", "beta=2",
                     "--param", "zeta=1", "--f", f, "--out", str(out)])


def test_family_f_degree_above_limit(tmp_path, capsys):
    # an f of degree n gives entries of degree 2n + 1, so t^32 would
    # write a file that verify refuses
    out = tmp_path / "fam.json"
    assert _thm5_ii_family(out, "t^32") == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert "above the limit 31" in captured.err
    assert not out.exists()


def test_family_f_degree_at_limit_loads(tmp_path):
    out = tmp_path / "fam.json"
    assert _thm5_ii_family(out, "t^31") == 0
    r = rmatfile.load(str(out))
    assert max(p.degree_in(r.alg.reg.sym("d1")) for p in r.entries.values()) \
        == rmatfile.MAX_SLOT_DEGREE - 1


@pytest.mark.parametrize("text", [
    '["x"]',
    '{"case": "thm5_ii", "params": ["lhh"]}',
    '{"case": "thm5_ii", "params": {"lhh": [1]}}',
    '{"case": "thm5_ii", "params": {"lhh": "1", "beta": "2", "zeta": "1"}, "f": 3}',
    '{"case": "thm5_ii", "params": {"lhh": "1/0"}}',
    '{"case": "thm5_ii", "params": {"lhh": Infinity}}',
    '{"case": "vir"}',
    '{"case": ["x"]}',
    '{"case": {"a": 1}}',
    '{"params": {}}',
], ids=["top_level_list", "params_list", "param_value_list", "f_not_string",
        "param_zero_denominator", "param_infinity", "vir_case", "case_list",
        "case_object", "no_case"])
def test_family_spec_malformed(tmp_path, capsys, text):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    out = tmp_path / "fam.json"
    assert cli.main(["family", "--spec", str(spec), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert not out.exists()
    if text == '{"params": {}}':
        # not the bare KeyError text "error: 'case'"
        assert captured.err == "error: a spec file has no case\n"


@pytest.mark.parametrize("number, text", [("0.1", "1/10"), ("1e-3", "1/1000"),
                                          ("2.50", "5/2")])
def test_family_spec_decimal_is_exact(tmp_path, capsys, number, text):
    # a JSON decimal is read as the rational it spells, not as a binary float
    spec = tmp_path / "spec.json"
    spec.write_text('{"case": "thm5_ii", "params": {"lhh": "1", "beta": %s, '
                    '"zeta": "0"}, "f": "t+1"}' % number)
    out = tmp_path / "fam.json"
    assert cli.main(["family", "--spec", str(spec), "--out", str(out)]) == 0
    entries = json.loads(out.read_text())["entries"]
    assert {"left": "f", "right": "e", "coeff": text} in entries


@pytest.mark.parametrize("content", [
    b'{"case": ' + b"[" * 100000,
    b"\xff",
    json.dumps({"case": "cor6_i", "params": {"alpha": 1},
                "f": "(" * 150 + "t" + ")" * 150}).encode(),
], ids=["deep_json", "not_utf8", "deep_parentheses"])
def test_family_spec_unreadable_exit(tmp_path, capsys, content):
    spec, out = tmp_path / "spec.json", tmp_path / "out.json"
    spec.write_bytes(content)
    assert cli.main(["family", "--spec", str(spec), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("number", ["1e5000", "-3E-5000"])
def test_family_decimal_exponent_bound(tmp_path, capsys, number):
    # Fraction would build 10**5000 (or 10**999999999) before refusing it
    out = tmp_path / "fam.json"
    spec = tmp_path / "spec.json"
    spec.write_text('{"case": "thm5_ii", "params": {"lhh": %s, "beta": "1", '
                    '"zeta": "0"}}' % number)
    for argv in (["family", "--spec", str(spec)],
                 ["family", "thm5_ii", "--param", f"lhh={number}", "--param", "beta=1",
                  "--param", "zeta=0"]):
        assert cli.main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "exponent" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()


# search ---------------------------------------------------------------------------


def test_search_cli(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    code = cli.main(["search", "--mode", "weak", "--max-degree", "1",
                     "--coeffs", "0,1", "--constants", "0", "--out", out])
    assert code == 0
    report = json.loads(open(out).read())
    assert report["candidates_scanned"] == 512
    assert len(report["content_hash"]) == 64
    assert not report["characterization_failures"]


def test_search_cli_empty_grid(capsys):
    assert cli.main(["search", "--coeffs", ""]) == 2


def test_search_cli_jobs(tmp_path, capsys):
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert cli.main(["search", "--max-degree", "1", "--coeffs", "0,1",
                     "--constants", "0,1", "--out", out1]) == 0
    assert cli.main(["search", "--max-degree", "1", "--coeffs", "0,1",
                     "--constants", "0,1", "--jobs", "2", "--out", out2]) == 0
    a, b = json.loads(open(out1).read()), json.loads(open(out2).read())
    assert a["content_hash"] == b["content_hash"]
    assert a["survivors"] == b["survivors"]


def test_search_cli_refuses_unbounded_work(monkeypatch, capsys):
    # degree 7 over {-1,0,1}: 2.29e13 invariance-consistent candidates,
    # refused with exit 2 before a scan or a worker pool starts
    def no_work(*args, **kwargs):
        raise AssertionError("the search was started")

    monkeypatch.setattr(search, "_scan", no_work)
    monkeypatch.setattr(search, "get_context", no_work)
    argv = ["search", "--max-degree", "7", "--coeffs=-1,0,1",
            "--constants=-1,0,1", "--jobs", "2"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "22876792454961" in captured.err


@pytest.mark.parametrize("raw", [True, False])
def test_search_cli_refuses_unbounded_degree(monkeypatch, capsys, raw):
    # one consistent candidate, but a max_degree whose scan tables alone
    # would take minutes: refused with exit 2 before any work starts
    def no_work(*args, **kwargs):
        raise AssertionError("the search was started")

    monkeypatch.setattr(search, "_scan", no_work)
    monkeypatch.setattr(search, "get_context", no_work)
    argv = ["search", "--max-degree", "201", "--coeffs", "0", "--constants", "0",
            "--jobs", "2"] + (["--raw"] if raw else [])
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error:") and str(search.MAX_DEGREE) in captured.err


@pytest.mark.parametrize("where", ["missing_parent", "directory", "null_byte"])
def test_search_cli_unwritable_out(tmp_path, monkeypatch, capsys, where):
    # a report path that cannot be written is refused with exit 2 and one
    # error line before the search starts, not after it
    def no_search(cfg):
        raise AssertionError("the search was started")

    monkeypatch.setattr(search, "run_search", no_search)
    out = {"missing_parent": str(tmp_path / "missing" / "r.json"),
           "directory": str(tmp_path), "null_byte": str(tmp_path / "r\0.json")}[where]
    argv = ["search", "--max-degree", "1", "--coeffs", "0,1", "--constants", "0",
            "--out", out]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert not (tmp_path / "missing").exists()


def test_search_cli_out_replaces_report_after_scan(tmp_path, monkeypatch, capsys):
    # an existing report is left whole until the new one replaces it
    out = tmp_path / "r.json"
    out.write_text("x" * 100000)
    run_search = search.run_search

    def check_kept(cfg):
        assert out.read_text() == "x" * 100000
        return run_search(cfg)

    monkeypatch.setattr(search, "run_search", check_kept)
    argv = ["search", "--max-degree", "1", "--coeffs", "0,1", "--constants", "0",
            "--out", str(out)]
    assert cli.main(argv) == 0
    assert json.loads(out.read_text())["candidates_scanned"] == 512


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
def test_search_cli_out_write_failure(capsys):
    # a report that cannot be written after the scan (the device is
    # full) gives one error line and exit 2, not a traceback
    argv = ["search", "--max-degree", "1", "--coeffs=-1,0,1", "--constants=-1,0,1",
            "--raw", "--out", "/dev/full"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert "28" in captured.err


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd here")
def test_search_cli_out_to_pipe(capsys):
    # a pipe cannot be truncated: the report is written to it whole
    read_fd, write_fd = os.pipe()
    received = []
    with os.fdopen(read_fd, "rb") as pipe:
        reader = threading.Thread(target=lambda: received.append(pipe.read()))
        reader.start()
        try:
            code = cli.main(["search", "--max-degree", "1", "--coeffs=0,1",
                             "--constants=0", "--out", f"/dev/fd/{write_fd}"])
        finally:
            os.close(write_fd)
            reader.join()
    assert code == 0
    report = json.loads(received[0])
    assert report["candidates_scanned"] == 512
    assert report["content_hash"] in capsys.readouterr().out


def _ccybe(*argv) -> subprocess.CompletedProcess:
    """`python -m ccybe.cli` on `argv` in a new process, importing the
    package these tests import."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return subprocess.run([sys.executable, "-m", "ccybe.cli", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300)


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout here")
def test_search_cli_out_to_stdout():
    # a report written to standard output is the whole stream: the
    # summary lines go to standard error
    done = _ccybe("search", "--max-degree", "1", "--coeffs=0,1", "--constants=0",
                  "--out", "/dev/stdout")
    assert done.returncode == 0
    report = json.loads(done.stdout)
    assert report["candidates_scanned"] == 512
    assert f"content hash: {report['content_hash']}" in done.stderr


@pytest.mark.parametrize("flag, values", [
    ("--coeffs", "1,1.0,2/2"),
    ("--coeffs", "0,0"),
    ("--constants", "-1,0,-2/2"),
])
def test_search_cli_duplicate_grid_values(monkeypatch, capsys, flag, values):
    def no_search(cfg):
        raise AssertionError("the search was started")

    monkeypatch.setattr(search, "run_search", no_search)
    assert cli.main(["search", "--max-degree", "1", f"{flag}={values}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "repeats a value" in captured.err


@pytest.mark.parametrize("argv, flag", [
    (["--coeffs", "1,1"], "--coeffs"),
    (["--constants", "0,0"], "--constants"),
    (["--jobs", "0"], "--jobs"),
    (["--max-degree", "2"], "--max-degree"),
])
def test_search_cli_errors_name_the_flag(capsys, argv, flag):
    # a refused configuration is reported under the flag the user typed,
    # not the SearchConfig field behind it
    assert cli.main(["search", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag}: ")


@pytest.mark.parametrize("jobs", ["0", "-3", "65", "100000"])
def test_search_cli_jobs_out_of_range(monkeypatch, capsys, jobs):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was requested")

    monkeypatch.setattr(search, "get_context", no_pool)
    assert cli.main(["search", "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "workers" in captured.err


@pytest.mark.parametrize("argv", [
    ["search", "--coeffs", "0,1/0"],
    ["family", "thm5_ii", "--param", "lhh=1/0", "--param", "beta=1",
     "--param", "zeta=1"],
], ids=["search_coeffs", "family_param"])
def test_zero_denominator_exit(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1


# vir ------------------------------------------------------------------------------


def test_vir_cli(capsys):
    assert cli.main(["vir", "x + y", "--mode", "weak"]) == 0
    capsys.readouterr()
    assert cli.main(["vir", "1", "--mode", "weak"]) == 1
    capsys.readouterr()
    assert cli.main(["vir", "(x+y)*(x^2+y^2)", "--mode", "invariance"]) == 0
    capsys.readouterr()
    assert cli.main(["vir", "x^(-1)", "--mode", "weak"]) == 2
    assert cli.main(["vir", "x + z", "--mode", "weak"]) == 2


def test_vir_deep_nesting(capsys):
    assert cli.main(["vir", "(" * 1000 + "x" + ")" * 1000]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nest deeper" in err
    # a chain of unary minus signs is a loop in the parser, so any length parses
    code = cli.main(["vir", "x + " + "-" * 5001 + "y", "--format", "json"])
    chained = capsys.readouterr().out
    assert cli.main(["vir", "x - y", "--format", "json"]) == code
    assert capsys.readouterr().out == chained


def test_vir_degree_above_limit(capsys):
    assert cli.main(["vir", "x^20000 + y", "--mode", "weak"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "degree 20000 in x" in err
    assert cli.main(["vir", "x + y^65", "--mode", "weak"]) == 2
    assert "degree 65 in y" in capsys.readouterr().err


# An integer literal is ASCII digits: a superscript two, an Arabic-Indic
# three, alone or after an ASCII digit, and a literal longer than int()
# reads are parse errors.
_BAD_LITERALS = [("d1^\u00b2", "x^\u00b2", "t^\u00b2", "exponent must be"),
                 ("\u0663", "\u0663", "\u0663", "unexpected character"),
                 ("1\u0663", "1\u0663", "1\u0663*t", "'\u0663' (at position 1)"),
                 ("1" * 5000, "1" * 5000, "1" * 5000 + "*t", "5000 digits")]


@pytest.mark.parametrize("coeff, expr, f, message", _BAD_LITERALS,
                         ids=["superscript", "arabic_indic", "mixed_digits", "overlong"])
def test_literal_outside_the_grammar_is_a_parse_error(tmp_path, capsys, coeff, expr, f,
                                                       message):
    path = write_rmat(tmp_path, "bad.json", {"algebra": "cur_sl2", "entries": [
        {"left": "h", "right": "h", "coeff": coeff}]})
    out = tmp_path / "fam.json"
    for argv in (["verify", path, "--mode", "weak"], ["vir", expr],
                 ["family", "thm5_ii", "--param", "lhh=1", "--param", "beta=1",
                  "--param", "zeta=0", "--f", f, "--out", str(out)]):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
        assert message in captured.err and "position" in captured.err
        assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("entry", ["-m ccybe.cli", "console script"])
def test_cli_exits_quietly_on_a_closed_pipe(tmp_path, entry):
    # `ccybe expand` of this file prints about 210 kB, more than a pipe
    # holds; a reader that takes one line and closes the pipe, as
    # `| head -1` does, stops it with no traceback and status 141, run as
    # `python -m ccybe.cli` or as the console script's `sys.exit(main())`
    path = write_rmat(tmp_path, "big.json", {"algebra": "cur_sl2", "entries": [
        {"left": "e", "right": "f", "coeff": "(d1 + 1)^50"},
        {"left": "h", "right": "h", "coeff": "d1^3 + 2"}]})
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    command = (["-m", "ccybe.cli"] if entry == "-m ccybe.cli" else
               ["-c", "import sys; from ccybe.cli import main; sys.exit(main())"])
    proc = subprocess.Popen([sys.executable, *command, "expand", path],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=dict(os.environ, PYTHONPATH=src))
    line = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert line == "reduced modulo the total derivation:\n" and err == ""
    assert proc.wait(timeout=300) == 141


def test_cli_main_in_process_leaves_stdout_alone():
    # given argv, main is a call in its caller's process: a closed
    # stream's BrokenPipeError reaches the caller, and no descriptor of
    # the process is redirected
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    before = os.fstat(1)
    with contextlib.redirect_stdout(Closed()), pytest.raises(BrokenPipeError):
        cli.main(["vir", "x + y"])
    after = os.fstat(1)
    assert (before.st_dev, before.st_ino) == (after.st_dev, after.st_ino)


# exit-code contract on arbitrary input ------------------------------------------------


def _call(argv, run=cli.main) -> tuple:
    """(exit status, stdout, stderr) of one in-process call; a usage error
    (SystemExit) counts as its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# the command table -------------------------------------------------------------------


def _run_full_parser(argv) -> int:
    args = cli.build_parser().parse_args(argv)
    return args.func(args)


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["bogus"], ["--", "verify"],
    *([command, "-h"] for command in cli.COMMANDS),
    ["verify"], ["verify", "a", "b"], ["verify", "x", "--mode", "nope"],
    ["verify", "x", "--bogus"], ["verify", "x", "--mo", "weak"],
    ["search", "--jobs", "x"], ["catalog", "--degree"], ["vir"],
], ids=lambda argv: " ".join(argv) or "no arguments")
def test_main_matches_full_parser(argv):
    # main builds only the named command's subparser: what the user sees
    # is what the parser of every command gives
    assert _call(argv) == _call(argv, _run_full_parser)


@pytest.mark.parametrize("argv", [
    ["verify", "r.json", "--mode", "weak", "--format", "json"],
    ["expand", "r.json"],
    ["catalog", "--degree", "2"],
    ["family", "thm5_ii", "--param", "lhh=1", "--param", "beta=2", "--f", "t^2 + 1",
     "--out", "o.json"],
    ["search", "--max-degree", "2", "--coeffs=-1,1", "--constants=0", "--raw", "--jobs",
     "2", "--out", "s.json", "--mode", "strict"],
    ["vir", "x - y", "--mode", "strict", "--format", "json"],
], ids=lambda argv: argv[0])
def test_command_parser_matches_full_parser(argv):
    full = cli.build_parser().parse_args(argv)
    assert cli.build_parser(argv[:1]).parse_args(argv) == full


def test_main_builds_only_the_named_command(monkeypatch):
    built = []
    build = cli.build_parser

    def record(names):
        built.append(tuple(names))
        return build(names)

    monkeypatch.setattr(cli, "build_parser", record)
    for argv in (["verify", "-h"], ["vir", "-h"], ["-h"], ["verif", "-h"]):
        _call(argv)
    every = tuple(cli.COMMANDS)
    assert built == [("verify",), ("vir",), every, every]


def test_entry_point_process_matches_main(tmp_path, capsys):
    # `python -m ccybe.cli` reads its arguments from sys.argv
    path = str(tmp_path / "thm5_ii.json")
    assert cli.main(["family", "thm5_ii", "--param", "lhh=1", "--param", "beta=2",
                     "--param", "zeta=1", "--out", path]) == 0
    capsys.readouterr()
    argv = ["verify", path, "--mode", "strict", "--format", "json"]
    code = cli.main(argv)
    done = _ccybe(*argv)
    assert (done.returncode, done.stdout) == (code, capsys.readouterr().out)


def test_verify_does_not_import_search(tmp_path):
    # verify reads no search code: neither the module nor its process
    # pool is loaded, so a verify process does not pay for them
    path = write_rmat(tmp_path, "exe.json", E_X_E)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = ("import contextlib, io, sys\n"
             "from ccybe import cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = cli.main(['verify', sys.argv[1], '--format', 'json'])\n"
             "print(code, 'ccybe.search' in sys.modules, 'multiprocessing' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", probe, path], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert done.stdout.split() == ["0", "False", "False"]


_TOKENS = ("d1", "d2", "d3", "x", "y", "t", "alpha", "lam", "0", "1", "2", "1/2",
           "3/0", "(", ")", "+", "-", "*", "^", "^2", "^3", "^65", "^99999", " ",
           "1e5", "1.5", "!", "", "(" * 150, "-" * 3000, "\u00b2", "^\u00b2", "\u0663")
_junk_text = st.lists(st.sampled_from(_TOKENS), max_size=10).map("".join)


def _poly(names):
    """Well-formed polynomial text of low degree in the given symbols."""
    term = st.builds(lambda c, v, e: f"{c}*{v}^{e}", st.integers(-3, 3),
                     st.sampled_from(names), st.integers(0, 3))
    return st.lists(term, min_size=1, max_size=3).map(" + ".join)


_text = _poly(("d1", "d2")) | _poly(("d1", "d2")) | _poly(("x", "y")) | _junk_text
_junk = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=4)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
_basis = st.sampled_from(("e", "f", "h") * 4 + ("v", "x", ""))
_entry = st.fixed_dictionaries(
    {"left": _basis, "right": _basis, "coeff": st.one_of(_text, _text, st.integers(-3, 3),
                                                         _junk)})
_rmat = st.fixed_dictionaries(
    {"algebra": st.sampled_from(("cur_sl2", "cur_sl2", "vir", "sl3")),
     "entries": st.one_of(*[st.lists(_entry, max_size=3)] * 3, _junk)},
    optional={"parameters": st.lists(st.sampled_from(("alpha", "beta", "lam", "1x", "d1"))
                                     | _junk, max_size=2)})
_value = st.sampled_from(("1", "-2", "1/2", "0", "1e5", "1e99999", "3/0", "x", "")) \
    | st.integers(-3, 3) | st.floats(allow_nan=True, allow_infinity=True)
_case = st.sampled_from(sorted(families.SL2_CASES) + ["vir", "nope"])
_name = st.sampled_from(("alpha", "beta", "gamma", "zeta", "lhh", "a", ""))
_monic = st.builds(lambda k, cs: " + ".join([f"t^{k}"] + [f"{c}*t^{j}" for j, c in
                                                         enumerate(cs[:k])]),
                   st.integers(0, 3), st.lists(st.integers(-2, 2), max_size=3))
_f = st.one_of(_monic, _monic, st.sampled_from(("t^40", "t^2+x")), _poly(("t",)), _junk_text)
_params = st.dictionaries(_name, _value, max_size=2)
_spec = st.fixed_dictionaries(
    {"case": _case | _junk}, optional={"params": _params | _junk, "f": _f | _junk})


def _family(case, params, f, out, flags):
    # the case's own parameters, small integers unless drawn otherwise
    own = {name: 1 for name in (families.SL2_CASES[case].params
                                if case in families.SL2_CASES else ())}
    pairs = [f"{n}={v}" for n, v in {**own, **params}.items()]
    return ["family", case, *sum((["--param", p] for p in pairs), []), "--f", f,
            *out, *flags]


def _document(obj):
    as_json = obj.map(lambda data: json.dumps(data, allow_nan=True).encode())
    return st.one_of(*[as_json] * 6, st.binary(max_size=12),
                     st.sampled_from((b"[" * 100000, b'{"a": ' * 100000)))


def _flags(*pairs):
    return st.lists(st.sampled_from(pairs), max_size=2).map(lambda chosen: sum(chosen, []))


_MODES = [["--mode", m] for m in ("invariance", "weak", "strict", "bogus")]
_FORMATS = [["--format", f] for f in ("text", "json", "xml")]
_argv = st.one_of(
    st.builds(lambda flags: ["verify", "{file}", *flags],
              _flags(*_MODES, *_MODES, *_FORMATS, ["--bogus"])),
    st.just(["expand", "{file}"]),
    st.builds(lambda expr, flags: ["vir", expr, *flags], _text, _flags(*_MODES, *_FORMATS)),
    st.builds(lambda degree, flags: ["catalog", "--degree", degree, *flags],
              st.integers(-3, 2).map(str) | st.sampled_from(("x", "", "17")),
              _flags(["-h"])),
    st.builds(_family, _case, st.just({}) | _params, _f,
              st.sampled_from((["--out", "{out}"], ["--out", "{out}"], ["--out", "{dir}"],
                               [])),
              _flags(["--spec", "{spec}"], ["--bogus"])),
    # the drawn spec file always reaches cmd_family here
    st.builds(lambda case: ["family", case, "--spec", "{spec}", "--out", "{out}"], _case),
    st.lists(st.sampled_from(("verify", "{file}", "--help", "bogus", "")), max_size=3),
)


@settings(max_examples=300)
@given(argv=_argv, rmat=_document(_rmat), spec=_document(_spec),
       missing=st.sampled_from((False, False, False, True)))
def test_cli_exit_contract_fuzz(tmp_path_factory, argv, rmat, spec, missing):
    # any r-matrix file, spec file and argument vector gives exit 0, 1 or
    # 2 and never an uncaught exception
    base = tmp_path_factory.getbasetemp() / "fuzz"
    base.mkdir(exist_ok=True)
    paths = {"file": base / "r.json", "spec": base / "spec.json", "out": base / "out.json",
             "dir": base}
    paths["file"].write_bytes(rmat)
    paths["spec"].write_bytes(spec)
    if missing:
        paths["file"].unlink()
    code, out, err = _call([arg.format(**paths) for arg in argv])
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err


# search: every grid drawn is small enough that an example scans at most
# 2^6 coefficient choices times 2^4 constants tuples (1,024 consistent
# candidates) at max_degree 1, and 2^4 above it.  A token holds no
# comma, so it gives at most one grid value.
_rational_token = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=4).map(str),
    st.sampled_from(("0", "1", "-1", "1.0", "2/2", "-0.5", "1e2")))
_grid_token = st.one_of(
    _rational_token,
    st.sampled_from(("1/0", "1e99999", "nan", "inf", "x", " ", "")),
    st.text(alphabet=st.characters(blacklist_characters=",", blacklist_categories=("Cs",)),
            max_size=6))


@st.composite
def _search_argv(draw):
    """(argument vector, report path below the test directory or None).

    Half of the examples draw valid degrees, modes and rational grids, so
    that they run a search; the other half draw any of them."""
    tokens, degrees, modes = draw(st.sampled_from((
        (_rational_token, ("1", "1", "1", "3"), ("weak", "strict")),
        (_grid_token, ("1", "3", "2", "0", "32", "99999999999", "x", "1.5"),
         ("weak", "strict", "bogus")))))
    degree = draw(st.sampled_from(degrees))
    coeffs = draw(st.lists(tokens, min_size=1, max_size=1 if degree in ("2", "3") else 2))
    constants = draw(st.lists(tokens, min_size=1, max_size=2))
    argv = ["search", "--jobs", "1", "--max-degree", degree, "--coeffs=" + ",".join(coeffs),
            "--constants=" + ",".join(constants), "--mode", draw(st.sampled_from(modes))]
    if draw(st.booleans()):
        argv.append("--raw")
    out = draw(st.one_of(
        st.sampled_from(("/r.json", "/r.json", "", "/missing/r.json")),
        st.text(alphabet=st.characters(blacklist_characters="/", blacklist_categories=("Cs",)),
                min_size=1, max_size=6).map(lambda name: "/" + name),
        st.none()))
    return argv, out


@settings(max_examples=120, deadline=None)
@given(drawn=_search_argv())
def test_cli_search_exit_contract_fuzz(tmp_path_factory, drawn):
    # any grids, degree and report path (the test directory itself, one
    # below a missing directory, or any name in it) give exit 0, 1 or 2
    # and never an uncaught exception
    argv, out = drawn
    base = tmp_path_factory.getbasetemp() / "search_fuzz"
    base.mkdir(exist_ok=True)
    if out is not None:
        argv = argv + ["--out", str(base) + out]
    code, stdout, err = _call(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in stdout + err
    if code == 2:
        assert not stdout and err

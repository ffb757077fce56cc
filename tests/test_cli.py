"""CLI behaviour: JSON output, round-trips, exit codes."""

import json
from dataclasses import replace

import pytest

from symfock import verify
from symfock.bases import schur
from symfock.cli import main
from symfock.symfunc import symfunc_from_json, symfunc_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_schur_det(capsys):
    code, out, _ = run_cli(capsys, "expand", "schur", "2,1", "--route", "det")
    assert code == 0
    payload = json.loads(out.strip())
    assert symfunc_from_json(payload) == schur((2, 1))


def test_expand_routes_agree(capsys):
    for route in ("det", "vertex", "generating"):
        code, out, _ = run_cli(capsys, "expand", "dualschur", "1", "--route", route)
        assert code == 0
        payload = json.loads(out.strip())
        assert payload["terms"][0]["p"] == [1]
        assert payload["terms"][0]["coeff"]["num"] == ["1", "-1"]


def test_expand_h0(capsys):
    code, out, _ = run_cli(capsys, "expand", "h", "0")
    assert code == 0
    assert json.loads(out.strip()) == {"terms": [{"p": [], "coeff": {"num": ["1"], "den": ["1"]}}]}


def test_expand_oracle_route(capsys):
    code, out, _ = run_cli(capsys, "expand", "hl", "2", "--route", "oracle", "-n", "2")
    assert code == 0
    payload = json.loads(out.strip())
    assert payload["vars"] == 2
    keys = {tuple(entry["e"]) for entry in payload["terms"]}
    assert keys == {(2, 0), (1, 1), (0, 2)}


def test_expand_output_roundtrips_as_tau_input(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "expand", "schur", "3,1", "--route", "det")
    assert code == 0
    path = tmp_path / "tau.json"
    path.write_text(out.strip())
    code, out, err = run_cli(capsys, "kp", "--file", str(path))
    assert code == 0
    assert json.loads(out.strip())["tau"] is True
    assert "TAU" in err


def test_expand_usage_errors(capsys):
    code, _, err = run_cli(capsys, "expand", "schur", "1,2")
    assert code == 2 and "error" in err
    code, _, _ = run_cli(capsys, "expand", "hl", "2,1", "--route", "det")
    assert code == 2
    code, _, _ = run_cli(capsys, "expand", "h", "2,1")
    assert code == 2
    code, _, _ = run_cli(capsys, "expand", "schur", "2,1", "--route", "bogus")
    assert code == 2


def test_expand_rejects_negative_variable_count(capsys):
    code, out, err = run_cli(capsys, "expand", "h", "3", "--route", "oracle", "-n", "-1")
    assert code == 2 and "error" in err and out == ""


@pytest.mark.parametrize(
    "argv",
    [("schur", "3,1", "--route", "det"), ("hl", "2", "--route", "vertex"), ("h", "2")],
    ids=" ".join,
)
def test_expand_rejects_variable_count_off_the_oracle_route(capsys, argv):
    # -n is read only by the oracle route; elsewhere it would be silently ignored
    code, out, err = run_cli(capsys, "expand", *argv, "-n", "3")
    assert code == 2 and "-n" in err and out == ""


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit):
        # argparse exits by itself on bad subcommands under parse_args
        raise SystemExit(main(["bogus"]))


def test_verify_small_window(capsys):
    code, out, err = run_cli(
        capsys, "verify", "heisenberg", "--max-mode", "2", "--max-degree", "2", "--charges=-1,0,1"
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert all(entry["status"] == "ok" for entry in lines)
    assert "verified" in err


def test_verify_corrupt_negative_control(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "fermion",
        "--max-mode",
        "2",
        "--max-degree",
        "2",
        "--charges",
        "0",
        "--corrupt",
    )
    assert code == 1
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[-1]["status"] == "fail"
    assert lines[-1]["witness"] is not None


def test_verify_twisted_corrupt_negative_control(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "twisted-fermion", "--max-degree", "3", "--max-mode", "2", "--corrupt"
    )
    assert code == 1
    last = json.loads(out.strip().splitlines()[-1])
    assert last["status"] == "fail"
    assert list(last["witness"]) == ["relation", "a", "b", "charge", "p", "lhs", "rhs"]


def test_verify_corrupt_rejected_where_it_does_not_apply(capsys):
    code, out, err = run_cli(capsys, "verify", "corollaries", "--max-degree", "2", "--corrupt")
    assert code == 2 and "error" in err and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("corollaries", "--max-degree", "2", "--charges", "7", "--max-mode", "9"),
        ("corollaries", "--max-degree", "2", "--charges", "7"),
        ("corollaries", "--max-degree", "2", "--max-mode", "9"),
        ("duality", "--max-degree", "2", "--charges", "1"),
        ("duality", "--max-degree", "2", "--max-mode", "1"),
        ("bases-agreement", "--max-degree", "2", "--charges", "0"),
        ("bases-agreement", "--max-degree", "2", "--max-mode", "0"),
        ("fermion", "--max-degree", "2", "--max-mode", "1", "--beta", "5"),
        ("heisenberg", "--max-degree", "2", "--max-mode", "1", "--beta", "1/2"),
        ("duality", "--max-degree", "2", "--beta", "1"),
    ],
)
def test_verify_rejects_options_the_suite_never_reads(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and "does not read" in err and out == ""


def test_verify_virasoro_reads_beta(capsys):
    code, out, _ = run_cli(capsys, "verify", "virasoro", "--max-degree", "1", "--max-mode", "1", "--beta", "1/2")
    assert code == 0
    names = [json.loads(line)["identity"] for line in out.strip().splitlines()]
    assert names and all(name.startswith("beta=1/2[") for name in names)


@pytest.mark.parametrize("value", ["abc", "0"])
def test_verify_rejects_malformed_sf_threads(monkeypatch, capsys, value):
    monkeypatch.setenv("SF_THREADS", value)
    code, out, err = run_cli(capsys, "verify", "corollaries", "--max-degree", "2")
    assert code == 2 and "SF_THREADS" in err and out == ""


def test_verify_bad_arguments(capsys):
    code, _, err = run_cli(capsys, "verify", "fermion", "--charges", "a,b")
    assert code == 2 and "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("fermion", "--max-degree", "-3"),
        ("kernel-factorization", "--max-mode", "-1"),
        ("twisted-heisenberg", "--max-mode", "0"),  # no nonzero mode pair
    ],
)
def test_verify_rejects_empty_window(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and "error" in err and out == ""
    assert "verified" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("virasoro", "--max-degree", "1", "--max-mode", "1", "--beta", "1", "--beta", "2/2"),
        ("fermion", "--max-degree", "1", "--max-mode", "1", "--charges", "1,1"),
    ],
)
def test_verify_rejects_repeated_sweep_values(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and "repeated value" in err and out == ""


def test_verify_unknown_suite_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "bogus")
    names = "commutation, fermion, twisted-fermion, heisenberg, twisted-heisenberg, virasoro, "
    names += "kernel-factorization, duality, bases-agreement, corollaries"
    assert (code, out, err) == (2, "", f"error: unknown suite 'bogus'; choose from {names}\n")


def test_verify_help_lists_every_suite(capsys):
    # the suite names are read from verify only when help is printed
    code, out, _ = run_cli(capsys, "verify", "--help")
    listing = out.split("positional arguments:\n")[1].split("\n\n")[0]
    # argparse wraps the listing at hyphens and indents the continuation lines
    joined = "".join(line.strip() for line in listing.splitlines()).removeprefix("suite").lstrip()
    assert code == 0 and joined.split("|") == list(verify.SUITE_NAMES)


@pytest.mark.parametrize("error", [ZeroDivisionError, ValueError])
def test_internal_error_exits_3(monkeypatch, capsys, error):
    # an exception while an item runs is a fault of the program, not of the input
    def broken(params, opts):
        raise error("injected")

    monkeypatch.setenv("SF_THREADS", "1")
    monkeypatch.setitem(verify.SUITES, "corollaries", replace(verify.SUITES["corollaries"], run=broken))
    code, out, err = run_cli(capsys, "verify", "corollaries", "--max-degree", "2")
    assert code == 3 and out == ""
    assert err.startswith("error:") and "injected" in err and err.count("\n") == 1


def test_kp_schur_and_dualschur(capsys):
    code, out, _ = run_cli(capsys, "kp", "--schur", "3,1")
    assert code == 0 and json.loads(out.strip())["tau"] is True
    code, out, _ = run_cli(capsys, "kp", "--dualschur", "2,1", "--deformed")
    assert code == 0 and json.loads(out.strip())["tau"] is True


def test_kp_rejects_multiple_sources(capsys):
    code, _, err = run_cli(capsys, "kp", "--schur", "1", "--file", "x.json")
    assert code == 2 and "exactly one" in err


def test_kp_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "kp", "--file", str(bad))
    assert code == 2 and "malformed" in err
    missing = tmp_path / "missing.json"
    code, _, err = run_cli(capsys, "kp", "--file", str(missing))
    assert code == 2 and "cannot read" in err
    schema_bad = tmp_path / "schema.json"
    schema_bad.write_text(json.dumps({"terms": [{"p": [1, 2]}]}))
    code, _, err = run_cli(capsys, "kp", "--file", str(schema_bad))
    assert code == 2


@pytest.mark.parametrize(
    "coeff",
    [
        {"den": ["1"]},  # no numerator
        {"num": "12"},  # a string, not a list of coefficients
        {"num": ["1"], "den": "2"},
        {"num": [str(10**27)]},  # above the 2**64 input cap
        {"num": ["1/0"]},
    ],
)
def test_kp_file_rejects_malformed_coefficient(tmp_path, capsys, coeff):
    path = tmp_path / "coeff.json"
    path.write_text(json.dumps({"terms": [{"p": [1], "coeff": coeff}]}))
    code, out, err = run_cli(capsys, "kp", "--file", str(path))
    assert code == 2 and "malformed" in err and out == ""


ONE = {"num": ["1"]}


@pytest.mark.parametrize(
    "payload",
    [
        {"terms": [{"p": [True], "coeff": ONE}]},  # a JSON boolean is not part 1
        {"terms": [{"p": [1], "cofef": ONE, "coeff": ONE}]},  # unknown term key
        {"terms": [{"p": [1], "coeff": ONE}], "extra": 1},  # unknown top-level key
        {"terms": [{"p": [1], "coeff": {"num": ["0"]}}, {"p": [1], "coeff": ONE}]},  # repeated partition
    ],
    ids=["bool-part", "term-key", "top-key", "repeat-after-zero"],
)
def test_kp_file_is_never_reinterpreted(tmp_path, capsys, payload):
    path = tmp_path / "tau.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "kp", "--file", str(path))
    assert code == 2 and "malformed" in err and out == ""


@pytest.mark.parametrize(
    "payload",
    [{"terms": []}, {"terms": [{"p": [1], "coeff": {"num": []}}]}],
    ids=["no-terms", "zero-coeff"],
)
def test_kp_file_rejects_zero_tau(tmp_path, capsys, payload):
    # the zero vector satisfies the identity vacuously and is no tau-function
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "kp", "--file", str(path))
    assert code == 2 and str(path) in err and "zero" in err and out == ""


def test_kp_search_rejects_negative_degree_bound(capsys):
    code, out, err = run_cli(capsys, "kp-search", "--degree-bound", "-1")
    assert code == 2 and "error" in err and out == ""


def test_kp_negative_control_file(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "kp-search", "--degree-bound", "4")
    assert code == 0
    payload = json.loads(out.strip())
    assert payload["found"] is True
    path = tmp_path / "nontau.json"
    path.write_text(json.dumps(payload["tau"]))
    code, out, err = run_cli(capsys, "kp", "--file", str(path))
    assert code == 1
    witness = json.loads(out.strip())
    assert witness["left_charge"] == 1 and witness["right_charge"] == -1
    assert witness["terms"]

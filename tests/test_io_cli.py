import json
import os
import stat
from dataclasses import replace
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from sympolar.capacity import equal_weight_certificate, make_suspension_certificate
import sympolar.cli
from sympolar.cli import _rational, run
from sympolar.io import (
    MalformedInputError,
    certificate_fields_from_dict,
    parse_rational,
    polytope_from_dict,
    polytope_to_dict,
    read_certificate_fields,
    read_polytope,
    write_certificate,
    write_polytope,
)
from sympolar.suspension import power_suspend
from sympolar.symplectic import c_j

F = Fraction


# --- rational parsing -------------------------------------------------------


def test_parse_rational_forms():
    assert parse_rational("7/2") == F(7, 2)
    assert parse_rational("-3") == F(-3)
    assert parse_rational(5) == F(5)


@pytest.mark.parametrize("bad", ["3.5", "1e3", "7/0", "1/2/3", True, 2.5, None, "1/-2"])
def test_parse_rational_rejects(bad):
    with pytest.raises(MalformedInputError):
        parse_rational(bad)


# --- polytope round trip ----------------------------------------------------


def test_polytope_round_trip(tmp_path, hexa, p2):
    for name, poly in (("hexa", hexa), ("p2", p2)):
        path = tmp_path / f"{name}.json"
        write_polytope(path, poly)
        assert read_polytope(path) == poly


def test_written_file_gets_the_mode_of_a_plain_open(tmp_path, hexa):
    """The temp file of an atomic write is created owner-only; the renamed
    file must have the mode 0o666 & ~umask, as ``open`` would give it."""
    old = os.umask(0o022)
    try:
        write_polytope(tmp_path / "hexa.json", hexa)
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "hexa.json").stat().st_mode) == 0o644


def test_polytope_dict_shape(hexa):
    data = polytope_to_dict(hexa)
    assert data["dim"] == 2
    assert data["vertices"][0] == ["-1", "-1"]
    assert polytope_from_dict(data) == hexa


@pytest.mark.parametrize(
    "data, message",
    [
        ([], "must be an object"),
        ({"dim": 2}, "missing field"),
        ({"dim": 0, "vertices": [["1"]]}, "invalid dimension"),
        ({"dim": True, "vertices": [["1"]]}, "invalid dimension"),
        ({"dim": 2, "vertices": []}, "nonempty vertex list"),
    ],
)
def test_polytope_from_dict_rejects(data, message):
    with pytest.raises(MalformedInputError, match=message):
        polytope_from_dict(data)


@pytest.mark.parametrize(
    "data, message",
    [
        ([], "must be an object"),
        ({}, "missing field"),
        (
            {"kind": "edges", "indices": [], "coeffs": [], "objective": "0"},
            "unknown certificate kind",
        ),
        (
            {
                "kind": "vertices",
                "indices": [{"index": 0, "sign": 1}],
                "coeffs": ["1/2", "1/2"],
                "objective": "0",
            },
            "counts differ",
        ),
    ],
)
def test_certificate_fields_from_dict_rejects(data, message):
    with pytest.raises(MalformedInputError, match=message):
        certificate_fields_from_dict(data)


def test_reader_rejects_floats(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "vertices": [[0.5, 1], [1, 0], [-1, 0], [0, -1], [-1, -1]]}')
    with pytest.raises(MalformedInputError):
        read_polytope(path)


def test_reader_rejects_wrong_arity(tmp_path):
    path = tmp_path / "bad2.json"
    path.write_text('{"dim": 3, "vertices": [["1", "0"], ["0", "1"]]}')
    with pytest.raises(MalformedInputError):
        read_polytope(path)


def test_reader_rejects_non_json(tmp_path):
    path = tmp_path / "bad3.json"
    path.write_text("nope")
    with pytest.raises(MalformedInputError):
        read_polytope(path)


@pytest.mark.parametrize(
    "reader, what", [(read_polytope, "polytope"), (read_certificate_fields, "certificate")]
)
def test_readers_name_the_failing_file(tmp_path, reader, what):
    missing = tmp_path / "missing.json"
    with pytest.raises(MalformedInputError, match=f"cannot read {what} file .*missing.json"):
        reader(missing)
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{nope")
    with pytest.raises(MalformedInputError, match="invalid JSON in .*garbled.json"):
        reader(garbled)


# --- CLI --------------------------------------------------------------------


def _call(tmp_path, *argv):
    return run(["--out-dir", str(tmp_path), *argv])


def test_cli_power_suspend_volume(tmp_path, capsys):
    assert _call(tmp_path, "power-suspend", "2", "--out", "p2.json") == 0
    assert _call(tmp_path, "volume", str(tmp_path / "p2.json")) == 0
    out = capsys.readouterr().out
    assert "7/2 (3.5)" in out


def test_cli_ehz_with_certificate(tmp_path, capsys):
    _call(tmp_path, "power-suspend", "2", "--out", "p2.json")
    p2 = str(tmp_path / "p2.json")
    # the vertices mode writes the default certificate path
    for kind, args, name in (
        ("vertices", ["--mode", "vertices"], "p2.cert.json"),
        ("facet-normals", ["--cert", "p2.normals.cert.json"], "p2.normals.cert.json"),
    ):
        capsys.readouterr()
        code = _call(tmp_path, "ehz", p2, *args)
        assert code == 0
        out = capsys.readouterr().out
        assert "5/2 (2.5)" in out
        assert "(<= 5 of 8 generator pairs)" in out
        cert_path = tmp_path / name
        assert cert_path.exists()
        data = json.loads(cert_path.read_text())
        assert set(data) == {"kind", "indices", "coeffs", "objective"}
        assert data["kind"] == kind
        assert data["objective"] == "2/5"
        code = _call(tmp_path, "certify", p2, str(cert_path))
        assert code == 0
        assert "c_EHZ <= 5/2" in capsys.readouterr().out
    # the complete search in the default mode carries no support-bound note
    assert _call(tmp_path, "ehz", p2, "--full", "--cert", "p2.full.cert.json") == 0
    out = capsys.readouterr().out
    assert "5/2 (2.5)" in out
    assert "generator pairs" not in out


def test_cli_ehz_support_bound(tmp_path, capsys):
    _call(tmp_path, "power-suspend", "2", "--out", "p2.json")
    p2 = str(tmp_path / "p2.json")
    capsys.readouterr()
    assert _call(tmp_path, "ehz", p2, "--support-bound", "4", "--cert", "b4.json") == 0
    out = capsys.readouterr().out
    assert "8/3 (2.6666666666666665)" in out
    assert "(<= 4 of 8 generator pairs)" in out
    # the complete search and a support bound exclude each other
    argv = ["ehz", p2, "--full", "--support-bound", "3", "--cert", "conflict.json"]
    assert _call(tmp_path, *argv) == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "conflict.json").exists()


def test_cli_ehz_full_builds_no_generator_base(tmp_path, capsys, monkeypatch):
    """The search clamps its support bound to the pair count, so ``--full``
    needs no pair count from the CLI and is the search at any bound >= m."""
    _call(tmp_path, "power-suspend", "2", "--out", "p2.json")
    p2 = str(tmp_path / "p2.json")
    argv = ["ehz", p2, "--mode", "vertices"]
    assert _call(tmp_path, *argv, "--support-bound", "8", "--cert", "b8.json") == 0

    def no_generator_base(*args):
        raise AssertionError("the CLI built a generator base")

    monkeypatch.setattr(sympolar.cli, "generator_base", no_generator_base)
    capsys.readouterr()
    assert _call(tmp_path, *argv, "--full", "--cert", "full.json") == 0
    out = capsys.readouterr().out
    assert "5/2 (2.5)" in out
    assert "note:" not in out
    assert (tmp_path / "full.json").read_bytes() == (tmp_path / "b8.json").read_bytes()


def test_cli_ehz_note_takes_the_search_bound_rule(tmp_path, capsys, monkeypatch):
    """The support-bounded note names the bound of the search's own rule,
    ``effective_support_bound``: a rule that reaches the pair count drops it."""
    _call(tmp_path, "power-suspend", "2", "--out", "p2.json")
    p2 = str(tmp_path / "p2.json")
    argv = ["ehz", p2, "--mode", "vertices"]
    capsys.readouterr()
    assert _call(tmp_path, *argv, "--cert", "bounded.json") == 0
    assert "(<= 5 of 8 generator pairs)" in capsys.readouterr().out
    monkeypatch.setattr(sympolar.cli, "effective_support_bound", lambda m, dim, bound: m)
    assert _call(tmp_path, *argv, "--cert", "patched.json") == 0
    out = capsys.readouterr().out
    assert "5/2 (2.5)" in out
    assert "note:" not in out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cli_certifies_the_closed_form_certificates(tmp_path, capsys, n):
    """The closed-form certificates index P_n's canonical generator base,
    against which the file format and ``certify`` resolve indices."""
    certificates = [equal_weight_certificate(n)]
    if n == 3:  # the suspension chain from the hexagon
        chain = equal_weight_certificate(1)
        for c_K in (F(3), F(5, 2)):
            chain = make_suspension_certificate(chain, c_K)
        certificates.append(chain)
    write_polytope(tmp_path / "p.json", power_suspend(n))
    for cert in certificates:
        write_certificate(tmp_path / "cert.json", cert)
        capsys.readouterr()
        assert _call(tmp_path, "certify", str(tmp_path / "p.json"), str(tmp_path / "cert.json")) == 0
        assert f"c_EHZ <= {2 + F(1, n)}" in capsys.readouterr().out


def _write_p2_certificate(tmp_path, indices, coeffs, objective):
    _call(tmp_path, "power-suspend", "2", "--out", "p2.json")
    cert = {"kind": "vertices", "indices": indices, "coeffs": coeffs, "objective": objective}
    (tmp_path / "cert.json").write_text(json.dumps(cert))
    return str(tmp_path / "p2.json"), str(tmp_path / "cert.json")


@pytest.mark.parametrize(
    "indices, objective",
    [
        # omega(g0, g1) = -1, so the objective is -1/4
        ([{"index": 0, "sign": 1}, {"index": 1, "sign": 1}], "-1/4"),
        # omega(g0, -g0) = 0
        ([{"index": 0, "sign": 1}, {"index": 0, "sign": -1}], "0"),
    ],
)
def test_cli_certify_rejects_objective_that_bounds_nothing(tmp_path, capsys, indices, objective):
    paths = _write_p2_certificate(tmp_path, indices, ["1/2", "1/2"], objective)
    capsys.readouterr()
    assert _call(tmp_path, "certify", *paths) == 5
    captured = capsys.readouterr()
    assert "certified upper bound" not in captured.out
    assert f"objective {objective} is not positive" in captured.err


def test_cli_certify_rejects_a_stored_objective_that_does_not_re_evaluate(tmp_path, capsys):
    write_polytope(tmp_path / "p2.json", power_suspend(2))
    # the equal-weight certificate of P_2 re-evaluates to 2/5
    wrong = replace(equal_weight_certificate(2), objective=F(1, 3))
    write_certificate(tmp_path / "cert.json", wrong)
    assert _call(tmp_path, "certify", str(tmp_path / "p2.json"), str(tmp_path / "cert.json")) == 5
    captured = capsys.readouterr()
    assert "certified upper bound" not in captured.out
    assert "stored objective 1/3 does not match re-evaluation 2/5" in captured.err


@pytest.mark.parametrize(
    "indices, coeffs",
    [
        (5, ["1/2", "1/2"]),
        ([{"index": 0, "sign": 1}], "1"),
        ([{"index": True, "sign": 1}], ["1"]),
        ([{"index": 0, "sign": True}], ["1"]),
    ],
)
def test_cli_certify_malformed_fields_exit_3(tmp_path, capsys, indices, coeffs):
    paths = _write_p2_certificate(tmp_path, indices, coeffs, "1/4")
    assert _call(tmp_path, "certify", *paths) == 3


def test_cli_selfpolar_and_sympolar_agree(tmp_path, capsys):
    _call(tmp_path, "power-suspend", "2", "--out", "p2.json")
    assert _call(tmp_path, "selfpolar-check", str(tmp_path / "p2.json")) == 0
    assert capsys.readouterr().out.strip().endswith("true")
    assert (
        _call(tmp_path, "sympolar", str(tmp_path / "p2.json"), "--out", "polar.json")
        == 0
    )
    capsys.readouterr()
    assert read_polytope(tmp_path / "polar.json") == read_polytope(tmp_path / "p2.json")


def test_cli_shadow_cj(tmp_path, capsys):
    _call(tmp_path, "power-suspend", "2", "--out", "p2.json")
    assert _call(tmp_path, "shadow", str(tmp_path / "p2.json")) == 0
    assert _call(tmp_path, "cj", str(tmp_path / "p2.json")) == 0
    out = capsys.readouterr().out
    assert "3 (3.0)" in out
    assert "1 (1.0)" in out


def test_cli_value_commands_print_the_library_values(tmp_path, capsys, square):
    write_polytope(tmp_path / "square.json", square)
    expected = {
        "selfpolar-check": "false",
        "volume": "4 (4.0)",
        "shadow": "4 (4.0)",
        "cj": _rational(c_j(square)),
    }
    for command, line in expected.items():
        capsys.readouterr()
        assert _call(tmp_path, command, str(tmp_path / "square.json")) == 0
        assert capsys.readouterr().out == line + "\n"


@pytest.mark.parametrize("command, suffix", [("suspend", "suspended"), ("sympolar", "sympolar")])
def test_cli_body_commands_name_their_output_after_the_input(
    tmp_path, capsys, hexa, command, suffix
):
    """Without ``--out`` the output is ``<stem>.<suffix>.json`` under
    ``--out-dir``, not beside the input."""
    src = tmp_path / "in" / "hexa.json"
    write_polytope(src, hexa)
    out = tmp_path / "out" / f"hexa.{suffix}.json"
    assert run(["--out-dir", str(out.parent), command, str(src)]) == 0
    body = read_polytope(out)
    # the hexagon suspends to P_2 and is its own symplectic polar
    assert body == (power_suspend(2) if command == "suspend" else hexa)
    assert capsys.readouterr().out == f"wrote {out} ({len(body.rows)} vertices, dim {body.dim})\n"
    assert [p.name for p in src.parent.iterdir()] == ["hexa.json"]


def test_cli_suspend_roundtrip(tmp_path, capsys, hexa):
    write_polytope(tmp_path / "hexa.json", hexa)
    assert (
        _call(tmp_path, "suspend", str(tmp_path / "hexa.json"), "--out", "s.json") == 0
    )
    from sympolar.suspension import power_suspend

    assert read_polytope(tmp_path / "s.json") == power_suspend(2)


def test_cli_generate(tmp_path, capsys):
    code = _call(
        tmp_path,
        "generate",
        "--dim",
        "2",
        "--k",
        "4",
        "--runs",
        "2",
        "--seed",
        "3",
        "--csv",
        "runs.csv",
        "--svg",
        "runs.svg",
    )
    assert code == 0
    assert (tmp_path / "runs.csv").exists()
    assert (tmp_path / "runs.svg").exists()


def test_cli_generate_single_run_names_no_svg(tmp_path, capsys):
    # one run draws no histogram, so the output names no svg file
    argv = ["generate", "--dim", "2", "--k", "4", "--runs", "1", "--seed", "3"]
    assert _call(tmp_path, *argv, "--svg", "runs.svg") == 0
    assert not (tmp_path / "runs.svg").exists()
    assert "svg" not in capsys.readouterr().out


@pytest.mark.parametrize("extra", [["--k", "2"], ["--k", "4", "--max-iter", "0"]])
def test_cli_generate_bad_parameters_exit_5(tmp_path, capsys, extra):
    # checked once before the batch: no per-run traceback and no CSV
    assert _call(tmp_path, "generate", "--dim", "4", "--runs", "2", *extra) == 5
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_cli_sequences(tmp_path, capsys):
    assert _call(tmp_path, "sequences", "--kind", "viterbo", "--n", "2") == 0
    assert "28/25" in capsys.readouterr().out
    assert _call(tmp_path, "sequences", "--kind", "compare", "--n", "1") == 0
    assert "1/3 * pi" in capsys.readouterr().out
    assert _call(tmp_path, "sequences", "--kind", "viterbo", "--check", "50") == 0


def test_cli_enumerate_pm1_dim2(tmp_path, capsys):
    code = _call(tmp_path, "enumerate-pm1", "--dim", "2", "--out", "report.json")
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(report) == 1
    assert report[0]["vertices"] == 6
    assert report[0]["volume"] == "3"
    assert report[0]["count"] == 2


def test_cli_enumerate_pm1_places_a_relative_rep_dir_under_out_dir(tmp_path, monkeypatch, capsys):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    out_dir = tmp_path / "out"
    argv = ["--out-dir", str(out_dir), "enumerate-pm1", "--dim", "2", "--rep-dir", "reps"]
    assert run(argv) == 0
    rep = out_dir / "reps" / "class_6v_3_1.json"
    assert rep.exists()
    report = json.loads((out_dir / "pm1_dim2.json").read_text())
    assert [entry["representative_file"] for entry in report] == ["reps/class_6v_3_1.json"]
    assert not list(cwd.iterdir())


def test_cli_enumerate_pm1_report_is_relative_to_its_directory(tmp_path, monkeypatch, capsys):
    """The report names each representative relative to its own directory,
    so two output directories give the same report bytes."""
    monkeypatch.chdir(tmp_path)
    reports = []
    for out_dir in ("a", str(tmp_path / "b" / "c")):
        assert run(["--out-dir", out_dir, "enumerate-pm1", "--dim", "2"]) == 0
        report = Path(out_dir) / "pm1_dim2.json"
        entry = json.loads(report.read_text())[0]
        assert (report.parent / entry["representative_file"]).exists()
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]
    assert b'"pm1_dim2_reps/class_6v_3_1.json"' in reports[0]


def test_cli_table1_budgeted(tmp_path, capsys):
    for budget in ("30", "0"):
        assert _call(tmp_path, "table1", "--budget", budget) == 0
        out = capsys.readouterr().out
        assert "|V(K)|" in out
        assert "partial" in out


def test_cli_exit_codes(tmp_path, capsys):
    # unknown subcommand -> usage
    assert run(["bogus"]) == 2
    # malformed file -> 3
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "vertices": [[0.25, "1"]]}')
    assert _call(tmp_path, "volume", str(bad)) == 3
    # missing file -> 3
    assert _call(tmp_path, "volume", str(tmp_path / "missing.json")) == 3
    # budget exhaustion -> 4
    _call(tmp_path, "power-suspend", "2", "--out", "p2.json")
    capsys.readouterr()
    assert (
        _call(
            tmp_path,
            "ehz",
            str(tmp_path / "p2.json"),
            "--mode",
            "vertices",
            "--budget",
            "10",
        )
        == 4
    )
    # domain error (asymmetric body for capacity) -> 5
    write_polytope(tmp_path / "tri.json", _triangle())
    assert _call(tmp_path, "ehz", str(tmp_path / "tri.json")) == 5
    # no capacity in odd dimension -> 5, with no value printed
    cube3 = tmp_path / "cube3.json"
    cube3.write_text(json.dumps({"dim": 3, "vertices": list(product((-1, 1), repeat=3))}))
    capsys.readouterr()
    assert _call(tmp_path, "ehz", str(cube3)) == 5
    assert capsys.readouterr().out == ""
    # a negative configuration budget is a domain error, not exhaustion -> 5
    assert _call(tmp_path, "ehz", str(tmp_path / "p2.json"), "--budget", "-1") == 5
    assert "configuration budget must be at least 0" in capsys.readouterr().err
    # dim-6 enumeration without budget -> 5
    assert _call(tmp_path, "enumerate-pm1", "--dim", "6") == 5
    # a negative clique budget -> 5, with no table or count printed
    capsys.readouterr()
    for argv in (("table1", "--budget", "-1"), ("enumerate-pm1", "--dim", "6", "--budget", "-3")):
        assert _call(tmp_path, *argv) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "clique budget must be at least 0" in captured.err


def _triangle():
    from sympolar.geometry import convex_hull

    return convex_hull([(1, 0), (-1, 1), (-1, -2)])


def test_cli_config_echo(tmp_path, capsys):
    _call(tmp_path, "sequences", "--kind", "viterbo", "--n", "1")
    err = capsys.readouterr().err
    assert err.startswith("config: ")
    json.loads(err.split("config: ", 1)[1].splitlines()[0])

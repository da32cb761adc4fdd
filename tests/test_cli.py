import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from alphaneg import cli
from alphaneg.channels import werner_holevo_channel
from alphaneg.cli import EXIT_INVALID, EXIT_OK, EXIT_OUT_OF_DOMAIN, EXIT_UNCONVERGED, main
from alphaneg.linalg import BipartitionDims
from alphaneg.states import (
    load_state,
    no_convexity_fixture,
    random_state,
    save_state,
    werner_state,
)


@pytest.fixture
def ppt_state(tmp_path):
    # PPT, so every order short-circuits to zero and the sweep is instant
    path = tmp_path / "werner.json"
    save_state(path, werner_state(2, 0.4))
    return path


@pytest.fixture
def npt_state(tmp_path):
    path = tmp_path / "npt.json"
    save_state(path, random_state(BipartitionDims(2, 2), 2, seed=1))
    return path


class TestSweepOrders:
    @pytest.mark.parametrize(
        "orders",
        [
            ["--alphas", "1,abc"],
            ["--alphas", "1,,2"],
            ["--grid", "2:1:3"],
            ["--grid", "1:2:0"],
            ["--grid", "1:2"],
            ["--alphas", "0.5,2"],
        ],
    )
    def test_bad_orders_exit_invalid_without_output(self, ppt_state, tmp_path, capsys, orders):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(ppt_state), *orders, "--out", str(out)]) == EXIT_INVALID
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_unwritable_out_fails_before_any_solve(self, ppt_state, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr("alphaneg.cli.alpha_sweep", lambda *args: calls.append(args))
        out = tmp_path / "no-such-dir" / "x.csv"
        assert main(["sweep", str(ppt_state), "--alphas", "2", "--out", str(out)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert calls == []

    @pytest.mark.parametrize(
        "orders, expected",
        [
            (["--alphas", "inf,2,1"], ["1.0", "2.0", "inf"]),
            (["--grid", "1:2:3"], ["1.0", "1.5", "2.0"]),
            (["--grid", "2:2:1"], ["2.0"]),
        ],
    )
    def test_orders_ascend_in_the_csv(self, ppt_state, tmp_path, orders, expected):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(ppt_state), *orders, "--out", str(out)]) == EXIT_OK
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["alpha"] for r in rows] == expected


@pytest.mark.parametrize(
    "command, flag",
    [
        ("compute", "--seed"),
        ("kappa", "--seed"),
        ("kappa", "--max-iter"),
        ("project", "--seed"),
        ("project", "--tol"),
        ("project", "--max-iter"),
        ("project", "--precision"),
        ("sweep", "--seed"),
        ("sweep", "--precision"),
        ("check", "--precision"),
        ("compute", "--map"),
    ],
)
def test_flags_no_code_reads_are_gone(ppt_state, tmp_path, capsys, command, flag):
    # required options are given, so the flag is what argparse rejects
    args = {
        "sweep": [str(ppt_state), "--alphas", "2", "--out", str(tmp_path / "sweep.csv")],
        "check": ["--suite", "lemmas"],
    }.get(command, [str(ppt_state)])
    with pytest.raises(SystemExit) as exc:
        main([command, *args, flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [["compute", "{state}"], ["channel", "--family", "wh:0.75,2"], ["repro", "normalization"]],
    ids=["compute", "channel", "repro"],
)
def test_negative_precision_is_rejected_before_any_solve(ppt_state, capsys, args):
    with pytest.raises(SystemExit) as exc:
        main([a.format(state=ppt_state) for a in args] + ["--precision", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --precision: invalid non_negative_int value: '-1'" in captured.err


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["compute", "{missing}"], id="compute-missing-state"),
        pytest.param(["kappa", "{missing}"], id="kappa-missing-state"),
        pytest.param(
            ["sweep", "{missing}", "--alphas", "2", "--out", "{tmp}/sweep.csv"],
            id="sweep-missing-state",
        ),
        pytest.param(["project", "{missing}"], id="project-missing-state"),
        pytest.param(["channel", "{missing}"], id="channel-missing-channel"),
        pytest.param(
            ["sweep", "{state}", "--alphas", "2", "--out", "{tmp}/no-such-dir/sweep.csv"],
            id="sweep-out-in-missing-dir",
        ),
        pytest.param(["check", "--suite", "nope"], id="check-unknown-suite"),
        pytest.param(["channel"], id="channel-without-input"),
    ],
)
def test_bad_input_exits_invalid_with_one_error_line(ppt_state, tmp_path, capsys, args):
    # main turns every error into an exit code; none escapes as a traceback
    names = {"missing": tmp_path / "missing.json", "state": ppt_state, "tmp": tmp_path}
    assert main([a.format(**names) for a in args]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "family, code, out",
    [
        ("wh:0.75,2", EXIT_OK, "value_bits: 0.584963\n"),
        ("wh:0.75,2.0", EXIT_OK, "value_bits: 0.584963\n"),
        ("wh:0.75,2.5", EXIT_OUT_OF_DOMAIN, ""),
        ("wh:0.75,1e400", EXIT_OUT_OF_DOMAIN, ""),
        ("wh:0.75,nan", EXIT_OUT_OF_DOMAIN, ""),
    ],
)
def test_werner_holevo_family_takes_an_integer_dimension(capsys, family, code, out):
    assert main(["channel", "--family", family]) == code
    captured = capsys.readouterr()
    assert captured.out == out
    assert captured.err == ("" if code == EXIT_OK else "error: family wh takes p,d with d a finite integer\n")


@pytest.mark.parametrize("family", ["thermal:0.5,0.25", "amplifier:2,0.5", "additive:0.5", "wh2:0.75,2"])
def test_only_the_werner_holevo_family_is_known(capsys, family):
    assert main(["channel", "--family", family]) == EXIT_OUT_OF_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    name = family.partition(":")[0]
    assert captured.err == f"error: unknown channel family {name!r}\n"


def test_project_leaves_a_ppt_state_in_place(ppt_state, tmp_path):
    out = tmp_path / "projected.json"
    assert main(["project", str(ppt_state), "--out", str(out)]) == EXIT_OK
    np.testing.assert_allclose(load_state(out).matrix, werner_state(2, 0.4).matrix, atol=1e-8)


@pytest.mark.parametrize(
    "payload",
    [
        {"dims": [0, 2], "matrix": [[[0.5, 0.0]] * 2] * 2},
        {"dims": [2, 2], "matrix": "abcd"},
        {"dims": [1, 1], "matrix": [[[1]]]},
    ],
)
@pytest.mark.parametrize("command", ["compute", "kappa", "project"])
def test_malformed_state_file_exits_invalid(tmp_path, capsys, command, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main([command, str(path)]) == EXIT_INVALID
    assert "malformed state JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compute", "kappa", "project", "channel"])
def test_file_that_is_not_utf8_json_exits_invalid(tmp_path, command):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe\x00bad")
    assert main([command, str(path)]) == EXIT_INVALID


def test_channel_beyond_search_scale_exits_unsupported(tmp_path, capsys):
    # the channel search runs up to input dimension 4; a 5-dim file is out of
    # its domain and must fail as such, not with a traceback
    m = werner_holevo_channel(0.5, 5).matrix
    path = tmp_path / "wh5.json"
    payload = {
        "kind": "superop",
        "dims_in": [5],
        "dims_out": [5],
        "data": [[[z.real, z.imag] for z in row] for row in m],
    }
    path.write_text(json.dumps(payload))
    assert main(["channel", str(path)]) == EXIT_OUT_OF_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "input dimension must be <= 4" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "command, flags",
    [
        ("compute", ["--tol", "0"]),
        ("compute", ["--tol", "-1"]),
        ("compute", ["--tol", "nan"]),
        ("compute", ["--max-iter", "0"]),
        ("kappa", ["--tol", "0"]),
        ("sweep", ["--tol", "0"]),
        ("sweep", ["--max-iter", "-1"]),
        ("check", ["--tol", "0"]),
        ("channel", ["--tol", "nan"]),
    ],
)
def test_bad_solver_flags_exit_invalid(ppt_state, tmp_path, capsys, command, flags):
    args = {
        "compute": [str(ppt_state)],
        "kappa": [str(ppt_state)],
        "sweep": [str(ppt_state), "--alphas", "2", "--out", str(tmp_path / "sweep.csv")],
        "check": ["--suite", "lemmas", "--smoke"],
        "channel": ["--family", "wh:0.5,2"],
    }[command]
    assert main([command, *args, *flags]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("state", ["npt_state", "ppt_state"])
def test_kappa_is_compute_at_inf(request, capsys, state):
    path = str(request.getfixturevalue(state))
    code_kappa = main(["kappa", path])
    out_kappa = capsys.readouterr().out
    code_compute = main(["compute", path, "--alpha", "inf"])
    assert (code_kappa, out_kappa) == (code_compute, capsys.readouterr().out)
    assert code_kappa == EXIT_OK


def test_compute_prints_an_unconverged_result(npt_state, capsys):
    assert main(["compute", str(npt_state), "--max-iter", "3"]) == EXIT_UNCONVERGED
    out = capsys.readouterr().out
    assert "iterations: 3\n" in out
    assert "converged: False\n" in out
    assert "diagnostic: projected gradient exhausted max_iter" in out


def test_no_convexity_margin_reads_the_measured_values(capsys, monkeypatch):
    # the mixture reads 5e-5 lower at every order: its rows still pass within
    # 1e-4, and the printed margin must move by the same amount
    mixed = no_convexity_fixture()[2].matrix
    measure = cli.e_alpha

    def shifted(rho, alpha, cfg):
        result = measure(rho, alpha, cfg)
        if np.array_equal(rho.matrix, mixed):
            result = dataclasses.replace(result, value_bits=result.value_bits - 5e-5)
        return result

    monkeypatch.setattr(cli, "e_alpha", shifted)
    assert main(["repro", "no-convexity"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert all(line.endswith("[PASS]") for line in lines[:-1])
    assert lines[-1].startswith("convexity violation margin: ")
    margin = float(lines[-1].split()[3])
    assert margin == pytest.approx(math.log2(1.5) - 0.5 - 5e-5, abs=2e-6)

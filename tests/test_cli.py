import csv
import json

import numpy as np
import pytest

from alphaneg.cli import EXIT_INVALID, EXIT_OK, main
from alphaneg.states import load_state, save_state, werner_state


@pytest.fixture
def ppt_state(tmp_path):
    # PPT, so every order short-circuits to zero and the sweep is instant
    path = tmp_path / "werner.json"
    save_state(path, werner_state(2, 0.4))
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
        ],
    )
    def test_bad_orders_exit_invalid_without_output(self, ppt_state, tmp_path, capsys, orders):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(ppt_state), *orders, "--out", str(out)]) == EXIT_INVALID
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

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
    ],
)
def test_flags_no_code_reads_are_gone(ppt_state, tmp_path, capsys, command, flag):
    # sweep's required options are given, so the flag is what argparse rejects
    required = {"sweep": ["--alphas", "2", "--out", str(tmp_path / "sweep.csv")]}
    with pytest.raises(SystemExit) as exc:
        main([command, str(ppt_state), *required.get(command, []), flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


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

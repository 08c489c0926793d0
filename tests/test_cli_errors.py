"""Every malformed or hostile input file exits 2 with a one-line message."""

import json
import subprocess
import sys

import pytest

from stiefelcodes.cli import EXIT_BAD_INPUT, main

HEADER = {"schema_version": 1, "field": "R", "d": 1, "r": 1, "n": 2, "metadata": {}}
GOOD = "[[[[1, 0]]], [[[-1, 0]]]]"


def code_file(tmp_path, matrices=GOOD, **header):
    path = tmp_path / "code.json"
    text = json.dumps(dict(HEADER, **header))[:-1] + ', "matrices": ' + matrices + "}"
    path.write_text(text, encoding="utf-8")
    return path


def run(capsys, *argv):
    rc = main([str(a) for a in argv])
    err = capsys.readouterr().err
    return rc, err


def test_good_file_exits_zero(tmp_path, capsys):
    assert run(capsys, "verify", code_file(tmp_path))[0] == 0


@pytest.mark.parametrize(
    "matrices, header",
    [
        pytest.param("[[[[true, 0]]], [[[-1, false]]]]", {}, id="booleans"),
        pytest.param("[[[[NaN, 0]]], [[[-1, 0]]]]", {}, id="nan"),
        pytest.param("[[[[Infinity, 0]]], [[[-1, 0]]]]", {}, id="infinity"),
        pytest.param("[[[[1e400, 0]]], [[[-1, 0]]]]", {}, id="overflow"),
        pytest.param('[[[["1", 0]]], [[[-1, 0]]]]', {}, id="string-entry"),
        pytest.param("[[[[1, 0]]]]", {}, id="too-few-matrices"),
        pytest.param(GOOD, {"d": -1}, id="negative-d"),
        pytest.param(GOOD, {"d": True}, id="boolean-d"),
        # 14.6 TiB if the header sized an allocation
        pytest.param("[]", {"d": 10**6, "n": 10**6}, id="huge-header"),
    ],
)
def test_verify_hostile_file_exits_two(tmp_path, capsys, matrices, header):
    rc, err = run(capsys, "verify", code_file(tmp_path, matrices, **header))
    assert rc == EXIT_BAD_INPUT
    assert err.startswith("stiefelcodes: ") and err.count("\n") == 1


def test_verify_non_utf8_file_exits_two(tmp_path, capsys):
    path = tmp_path / "code.json"
    path.write_bytes(b"\xff\xfe{}")
    assert run(capsys, "verify", path)[0] == EXIT_BAD_INPUT


def test_verify_missing_file_exits_two(tmp_path, capsys):
    assert run(capsys, "verify", tmp_path / "missing.json")[0] == EXIT_BAD_INPUT


def test_construct_missing_seed_code_exits_two(tmp_path, capsys):
    rc, err = run(
        capsys,
        "construct", "--field", "R", "--d", "3", "--r", "1", "--n", "3",
        "--method", "pad", "--seed-code", tmp_path / "missing.json",
    )
    assert rc == EXIT_BAD_INPUT
    assert "missing.json" in err


def test_construct_hostile_seed_code_exits_two(tmp_path, capsys):
    path = code_file(tmp_path, "[[[[true, 0]]], [[[-1, false]]]]")
    rc, _ = run(
        capsys,
        "construct", "--field", "R", "--d", "2", "--r", "1", "--n", "2",
        "--method", "pad", "--seed-code", path,
    )
    assert rc == EXIT_BAD_INPUT


@pytest.mark.parametrize(
    "text",
    ["{not json", "[[[[1, 0]]], [[1]]]", '[[["x"]]]', "7"],
    ids=["not-json", "ragged", "string", "number"],
)
def test_construct_bad_hr_file_exits_two(tmp_path, capsys, text):
    path = tmp_path / "gens.json"
    path.write_text(text, encoding="utf-8")
    rc, _ = run(
        capsys,
        "construct", "--field", "R", "--d", "16", "--r", "16", "--n", "10",
        "--method", "radon-hurwitz", "--hr-file", path,
    )
    assert rc == EXIT_BAD_INPUT


def test_construct_missing_design_file_exits_two(tmp_path, capsys):
    rc, _ = run(
        capsys,
        "construct", "--field", "R", "--d", "6", "--r", "3", "--n", "4",
        "--method", "bibd", "--design", tmp_path / "missing.json",
    )
    assert rc == EXIT_BAD_INPUT


def test_construct_bibd_seed_key_outside_the_manifold_exits_two(capsys):
    # k4-edges has b = 6, rep = 3: d = r = 6 asks for a (1, 2, 2) seed
    rc, err = run(
        capsys,
        "construct", "--field", "R", "--d", "6", "--r", "6", "--n", "4",
        "--method", "bibd", "--design", "builtin:k4-edges",
    )
    assert rc == EXIT_BAD_INPUT
    assert "builtin:k4-edges" in err and "(6/6, 6/3, 2)" in err
    assert err.count("\n") == 1


def test_unwritable_out_exits_two(tmp_path, capsys):
    rc, _ = run(
        capsys,
        "construct", "--field", "R", "--d", "2", "--r", "1", "--n", "3",
        "--method", "sphere", "--out", tmp_path / "no-such-dir" / "code.json",
    )
    assert rc == EXIT_BAD_INPUT


def test_hostile_file_leaves_no_traceback(tmp_path):
    path = code_file(tmp_path, "[[[[1, 0]]], [[[-1, 0]]]]", d=-1)
    proc = subprocess.run(
        [sys.executable, "-m", "stiefelcodes", "verify", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_BAD_INPUT
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("tol", ["inf", "nan", "0"])
def test_verify_bad_tolerance_exits_two(tmp_path, capsys, tol):
    rc, _ = run(capsys, "verify", code_file(tmp_path), "--tol", tol)
    assert rc == EXIT_BAD_INPUT

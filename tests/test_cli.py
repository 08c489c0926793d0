import json
import math

import numpy as np
import pytest

from stiefelcodes import Field, loads_code, read_code_file, ssc_sphere
from stiefelcodes.cli import main
from stiefelcodes.io import code_to_dict, render_json
from stiefelcodes.verify import certify


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_construct_bibd_worked_example(tmp_path, capsys):
    out = tmp_path / "code.json"
    rc, _, err = run(
        capsys,
        "construct", "--field", "R", "--d", "6", "--r", "3", "--n", "4",
        "--method", "bibd", "--design", "builtin:k4-edges", "--out", str(out),
    )
    assert rc == 0
    assert "SSC" in err
    code, meta = read_code_file(out)
    assert (code.d, code.r, code.n) == (6, 3, 4)
    report = certify(code)
    assert report.min_distance**2 == pytest.approx(8.0, abs=1e-9)
    assert meta["construction"].startswith("ssc_from_bibd")


def test_construct_orbit_to_stdout(capsys):
    rc, out, err = run(
        capsys,
        "construct", "--field", "C", "--d", "2", "--r", "2", "--n", "16",
        "--method", "orbit",
    )
    assert rc == 0
    code, _ = loads_code(out)
    assert certify(code).min_distance == pytest.approx(2.0, abs=1e-9)


def test_construct_auto_infeasible(capsys):
    # n = 20 exceeds the orthoplex cap 2mdr = 18: nothing can construct it
    rc, _, err = run(
        capsys,
        "construct", "--field", "R", "--d", "3", "--r", "3", "--n", "20",
        "--method", "auto",
    )
    assert rc == 3


def test_construct_infeasible_params(capsys):
    rc, _, _ = run(
        capsys,
        "construct", "--field", "R", "--d", "2", "--r", "1", "--n", "9",
        "--method", "sphere",
    )
    assert rc == 3


def test_construct_wrong_shape_request(capsys):
    # sphere produces r = 1; asking for r = 2 is a usage error
    rc, _, _ = run(
        capsys,
        "construct", "--field", "R", "--d", "3", "--r", "2", "--n", "3",
        "--method", "sphere",
    )
    assert rc == 2


def test_construct_with_seed_code_transforms(tmp_path, capsys):
    seed_path = tmp_path / "seed.json"
    rc, _, _ = run(
        capsys,
        "construct", "--field", "R", "--d", "2", "--r", "1", "--n", "3",
        "--method", "sphere", "--out", str(seed_path),
    )
    assert rc == 0
    rc, out, _ = run(
        capsys,
        "construct", "--field", "R", "--d", "3", "--r", "1", "--n", "3",
        "--method", "pad", "--seed-code", str(seed_path),
    )
    assert rc == 0
    code, _ = loads_code(out)
    assert (code.d, code.r, code.n) == (3, 1, 3)
    rc, out, _ = run(
        capsys,
        "construct", "--field", "R", "--d", "4", "--r", "2", "--n", "3",
        "--method", "kronecker", "--k", "2", "--seed-code", str(seed_path),
    )
    assert rc == 0


def test_verify_good_file(tmp_path, capsys):
    path = tmp_path / "code.json"
    rc, _, _ = run(
        capsys,
        "construct", "--field", "R", "--d", "2", "--r", "1", "--n", "3",
        "--method", "sphere", "--out", str(path),
    )
    rc, out, _ = run(capsys, "verify", str(path))
    assert rc == 0
    report = json.loads(out)
    assert report["classification"] == "SSC"
    in_memory = certify(read_code_file(path)[0]).to_dict()
    assert report == json.loads(render_json(in_memory))  # field-for-field round trip


def test_verify_scaled_matrix_invalid(tmp_path, capsys):
    code = ssc_sphere(Field.REAL, 2, 3)
    data = code_to_dict(code)
    data["matrices"][0] = [[[v * 1.01 for v in entry] for entry in row] for row in data["matrices"][0]]
    path = tmp_path / "bad.json"
    path.write_text(render_json(data))
    rc, out, _ = run(capsys, "verify", str(path))
    assert rc == 1
    assert json.loads(out)["classification"] == "Invalid"


def test_verify_real_file_with_imaginary_parts(tmp_path, capsys):
    data = code_to_dict(ssc_sphere(Field.COMPLEX, 1, 3))
    data["field"] = "R"
    path = tmp_path / "bad.json"
    path.write_text(render_json(data))
    rc, _, err = run(capsys, "verify", str(path))
    assert rc == 2


def test_verify_garbage_file(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{]")
    rc, _, _ = run(capsys, "verify", str(path))
    assert rc == 2


def test_bound_u2(capsys):
    rc, out, _ = run(
        capsys, "bound", "--field", "C", "--d", "2", "--r", "2", "--n", "9", "--json"
    )
    assert rc == 0
    data = json.loads(out)
    assert data["simplex_cap"] == 9
    assert data["orthoplex_cap"] == 16
    assert data["rows"][0]["simplex_bound"] == pytest.approx(math.sqrt(4.5))


def test_bound_rho(capsys):
    rc, out, _ = run(capsys, "bound", "--field", "R", "--d", "16", "--json")
    assert json.loads(out)["rho"] == 9
    rc, out, _ = run(capsys, "bound", "--field", "R", "--d", "2", "--r", "1", "--n", "4")
    assert rc == 0
    assert "orthoplex" in out


def test_bound_range(capsys):
    rc, out, _ = run(
        capsys, "bound", "--field", "R", "--d", "3", "--r", "1",
        "--n-range", "2", "5", "--json",
    )
    assert [row["n"] for row in json.loads(out)["rows"]] == [2, 3, 4, 5]


def test_optimize_two_points_and_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = [
        "optimize", "--field", "R", "--d", "1", "--r", "1", "--n", "2",
        "--seed", "0", "--restarts", "2", "--max-iters", "50",
    ]
    rc, _, err = run(capsys, *args, "--out", str(out1))
    assert rc == 0
    code, meta = read_code_file(out1)
    assert certify(code).min_distance == pytest.approx(2.0, abs=1e-12)
    assert meta["config"]["seed"] == 0
    rc, _, _ = run(capsys, *args, "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()  # byte-identical rerun


def test_atlas_o2_table(capsys):
    rc, out, _ = run(capsys, "atlas", "o2-table", "--max-n", "12", "--json")
    assert rc == 0
    assert [row["k"] for row in json.loads(out)] == [2, 3, 4, 4, 4, 4, 4, 5, 5, 6, 6]


def test_atlas_circle(capsys):
    rc, out, _ = run(capsys, "atlas", "circle", "--n", "4")
    assert rc == 0
    code, _ = loads_code(out)
    assert certify(code).min_distance == pytest.approx(math.sqrt(2), abs=1e-12)


def test_atlas_o2_code(capsys):
    rc, out, err = run(capsys, "atlas", "o2", "--n", "7")
    assert rc == 0
    code, meta = loads_code(out)
    assert certify(code).min_distance == pytest.approx(2.0, abs=1e-9)
    assert meta["k"] == 4


def test_atlas_best(capsys):
    rc, out, err = run(capsys, "atlas", "best", "--field", "C", "--d", "1", "--r", "1", "--n", "4")
    assert rc == 0
    code, _ = loads_code(out)
    assert certify(code).min_distance == pytest.approx(math.sqrt(2), abs=1e-9)
    assert "soc_complex_orbit" in err


def test_construct_regular_rep(capsys):
    rc, out, _ = run(
        capsys,
        "construct", "--field", "R", "--d", "3", "--r", "3", "--n", "4",
        "--method", "regular-rep",
    )
    assert rc == 0
    code, _ = loads_code(out)
    assert certify(code).min_distance**2 == pytest.approx(8.0, abs=1e-9)  # 2d + 2


def test_construct_hadamard_soc(capsys):
    rc, out, _ = run(
        capsys,
        "construct", "--field", "R", "--d", "2", "--r", "2", "--n", "8",
        "--method", "hadamard",
    )
    assert rc == 0
    code, _ = loads_code(out)
    assert certify(code).min_distance == pytest.approx(2.0, abs=1e-12)


def test_construct_radon_hurwitz_with_generator_file(tmp_path, capsys):
    # lift the 8-dim family to R^16 and ship it as the external JSON format
    import numpy as np

    from stiefelcodes import hurwitz_radon_family

    fam8 = hurwitz_radon_family(Field.REAL, 8)
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    k = np.array([[1.0, 0.0], [0.0, -1.0]])
    gens = [np.kron(j, np.eye(8))] + [np.kron(k, a.real) for a in fam8[1:]]
    payload = [[[[float(z.real), float(z.imag)] for z in row] for row in g] for g in gens]
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(payload))

    rc, _, _ = run(
        capsys,
        "construct", "--field", "R", "--d", "16", "--r", "16", "--n", "10",
        "--method", "radon-hurwitz",
    )
    assert rc == 3  # gated without a generator file

    rc, out, _ = run(
        capsys,
        "construct", "--field", "R", "--d", "16", "--r", "16", "--n", "10",
        "--method", "radon-hurwitz", "--hr-file", str(path),
    )
    assert rc == 0
    code, _ = loads_code(out)
    assert certify(code).classification.value == "SSC"


def test_bad_arguments_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--field", "R", "--d", "2", "--r", "1", "--n", "3",
              "--method", "nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_missing_design_flag(capsys):
    rc, _, _ = run(
        capsys,
        "construct", "--field", "R", "--d", "6", "--r", "3", "--n", "4", "--method", "bibd",
    )
    assert rc == 2


def test_construct_with_external_design_file(tmp_path, capsys):
    # a design file without a resolution: the search supplies one
    design = {"v": 4, "blocks": [[1, 2], [3, 4], [1, 3], [2, 4], [1, 4], [2, 3]]}
    path = tmp_path / "k4.json"
    path.write_text(json.dumps(design))
    rc, out, _ = run(
        capsys,
        "construct", "--field", "R", "--d", "6", "--r", "3", "--n", "4",
        "--method", "bibd", "--design", str(path),
    )
    assert rc == 0
    code, _ = loads_code(out)
    assert certify(code).min_distance**2 == pytest.approx(8.0, abs=1e-9)


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "stiefelcodes", "bound", "--field", "C", "--d", "2",
         "--r", "2", "--n", "9", "--json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["simplex_cap"] == 9

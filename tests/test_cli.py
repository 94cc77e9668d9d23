import json

import pytest

from orbichar.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _err = run(capsys, *argv)
    return code, json.loads(out)


def test_euler_point_s3_z(capsys):
    code, report = run_json(
        capsys, "euler", "--complex", "point", "--group", "S3", "--gamma", "Z"
    )
    assert code == 0
    assert report["chi_gamma_es"] == "1"
    assert report["sector_count"] == 3


def test_euler_point_s3_trivial(capsys):
    code, report = run_json(
        capsys, "euler", "--complex", "point", "--group", "S3", "--gamma", "trivial"
    )
    assert code == 0
    assert report["chi_gamma_es"] == "1/6"


def test_euler_preset_antipodal(capsys):
    code, report = run_json(
        capsys, "euler", "--complex", "octahedron-antipodal", "--gamma", "Z"
    )
    assert code == 0
    assert report["chi_gamma_es"] == "1"
    assert report["dropped_classes"] == 1


def test_euler_requires_complex(capsys):
    code, _out, err = run(capsys, "euler")
    assert code == 2 and "complex" in err


def test_euler_unknown_complex(capsys):
    code, _out, err = run(capsys, "euler", "--complex", "nope", "--group", "Z2")
    assert code == 2 and "unknown complex" in err


def test_euler_preset_group_clash(capsys):
    code, _out, err = run(
        capsys, "euler", "--complex", "S0-swap", "--group", "Z2"
    )
    assert code == 2


def test_euler_json_complex(tmp_path, capsys):
    spec = {
        "vertices": 2,
        "maximal_simplices": [[0], [1]],
        "action": {"g": [1, 0]},
    }
    path = tmp_path / "s0.json"
    path.write_text(json.dumps(spec))
    code, report = run_json(
        capsys, "euler", "--complex", str(path), "--group", "Z2", "--gamma", "Z"
    )
    assert code == 0
    assert report["chi_gamma_es"] == "1"
    assert report["sector_count"] == 1


@pytest.mark.parametrize(
    "spec",
    [
        {"vertices": [0, 1], "maximal_simplices": [[0, "x"]]},
        {"vertices": "ab", "maximal_simplices": [[0]]},
        {"vertices": 2, "maximal_simplices": [[0], [1]], "action": {"g": [1, "x"]}},
        {"vertices": 2, "maximal_simplices": [[0], [1]], "action": {"g": [1, 7]}},
        {"vertices": 2, "maximal_simplices": [[0], [1]], "action": {"g": 5}},
        {"vertices": 2, "maximal_simplices": [[0], [1]], "action": [1, 0]},
    ],
    ids=["mixed-ids", "vertex-string", "action-id", "action-range",
         "action-row", "action-list"],
)
def test_euler_json_complex_rejects_malformed_ids(tmp_path, capsys, spec):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "euler", "--complex", str(path), "--group", "Z2")
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in err


def test_wreath_classes_z2(capsys):
    code, report = run_json(capsys, "wreath", "classes", "--group", "Z2", "--n", "2")
    assert code == 0
    assert report["class_count"] == 5
    assert report["wreath_order"] == 8
    # class sizes sum to the group order
    assert sum(r["class_size"] for r in report["rows"]) == 8


def test_wreath_classes_trivial_partitions(capsys):
    code, report = run_json(
        capsys, "wreath", "classes", "--group", "trivial", "--n", "4"
    )
    assert code == 0
    assert report["class_count"] == 5


def test_wreath_centralizers(capsys):
    code, report = run_json(
        capsys, "wreath", "centralizers", "--group", "Z3", "--n", "2"
    )
    assert code == 0
    assert report["pass"] and all(r["equal"] for r in report["rows"])


def test_wreath_centralizer_cap(capsys):
    code, _out, err = run(capsys, "wreath", "centralizers", "--group", "S3", "--n", "4")
    assert code == 3 and "cap" in err.lower()


def test_wreath_euler_point(capsys):
    code, report = run_json(capsys, "wreath", "euler", "--group", "Z2", "--n", "2")
    assert code == 0
    assert report["chi_es"] == "1/8"
    assert report["pass"]


def test_wreath_euler_s0(capsys):
    code, report = run_json(
        capsys,
        "wreath",
        "euler",
        "--group",
        "Z2",
        "--n",
        "2",
        "--complex",
        "S0",
    )
    assert code == 0
    assert report["chi_es"] == "1/2"


def test_wreath_needs_group(capsys):
    code, _out, err = run(capsys, "wreath", "classes", "--n", "2")
    assert code == 2


def test_verify_exp(capsys):
    code, report = run_json(
        capsys, "verify", "exp", "--complex", "point-Z2", "--order", "5"
    )
    assert code == 0 and report["equal"]
    assert report["identity"] == "exp-formula"


def test_verify_main_m0_trivial_point(capsys):
    code, report = run_json(
        capsys,
        "verify",
        "main",
        "--complex",
        "point-trivial",
        "--m",
        "0",
        "--order",
        "8",
    )
    assert code == 0
    assert report["lhs"] == ["1"] * 9
    assert report["rhs"] == ["1"] * 9


def test_verify_main_m1(capsys):
    code, report = run_json(
        capsys,
        "verify",
        "main",
        "--complex",
        "point-Z2",
        "--m",
        "1",
        "--order",
        "4",
    )
    assert code == 0
    assert report["lhs"] == ["1", "2", "5", "10", "20"]


def test_verify_jcount(capsys):
    code, report = run_json(capsys, "verify", "jcount", "--n", "6", "--m", "2")
    assert code == 0 and report["equal"]
    by_rm = {(r["r"], r["m"]): r["formula"] for r in report["rows"]}
    assert by_rm[(2, 2)] == 3
    assert by_rm[(4, 2)] == 7


def test_verify_macdonald(capsys):
    code, report = run_json(
        capsys, "verify", "macdonald", "--complex", "point-Z2", "--order", "4"
    )
    assert code == 0 and report["equal"]


def test_verify_hodge_bundled(capsys):
    code, report = run_json(capsys, "verify", "hodge", "--order", "4")
    assert code == 0 and report["equal"]
    assert set(report["datasets"]) == {
        "abelian-surface",
        "point-Z2",
        "point-trivial",
        "two-sector-shifted",
    }


def test_verify_hodge_named_dataset(capsys):
    code, report = run_json(
        capsys,
        "verify",
        "hodge",
        "--complex",
        "two-sector-shifted",
        "--order",
        "5",
    )
    assert code == 0 and list(report["datasets"]) == ["two-sector-shifted"]


def test_verify_hodge_json_file(tmp_path, capsys):
    spec = {
        "d": 0,
        "sectors": [
            {
                "class": "e",
                "component": 0,
                "dims": {"0,0": 1},
                "angles": [],
                "d": 0,
            }
        ],
    }
    path = tmp_path / "data.json"
    path.write_text(json.dumps(spec))
    code, report = run_json(
        capsys, "verify", "hodge", "--complex", str(path), "--order", "4"
    )
    assert code == 0 and report["equal"]


def test_verify_sectors(capsys):
    code, report = run_json(
        capsys,
        "verify",
        "sectors",
        "--complex",
        "point-S3",
        "--gamma",
        "Z,Z",
    )
    assert code == 0 and report["equal"]
    assert report["iterated_sector_count"] == 8


def test_verify_products(capsys):
    code, report = run_json(capsys, "verify", "products")
    assert code == 0 and report["equal"]
    assert len(report["pairs"]) == 8


def test_verify_mismatch_exit_code(capsys, monkeypatch):
    # force a mismatch by tampering with the formula side
    import orbichar.series as series_mod

    real = series_mod.subgroup_count

    def crooked(r, m):
        res = real(r, m)
        if (r, m) == (2, 2):
            return type(res)(r, m, res.value + 1)
        return res

    monkeypatch.setattr("orbichar.cli.series.subgroup_count", crooked)
    code, report = run_json(capsys, "verify", "jcount", "--n", "3", "--m", "2")
    assert code == 1 and not report["equal"]


def test_report_written_to_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, _ = run(
        capsys,
        "verify",
        "jcount",
        "--n",
        "3",
        "--m",
        "1",
        "--out",
        str(out),
    )
    assert code == 0
    assert out.read_text() == stdout


def test_reports_deterministic_across_workers(capsys):
    _, out1, _ = run(
        capsys, "verify", "main", "--complex", "S0-swap", "--m", "1",
        "--order", "3", "--workers", "1",
    )
    _, out2, _ = run(
        capsys, "verify", "main", "--complex", "S0-swap", "--m", "1",
        "--order", "3", "--workers", "4",
    )
    assert out1 == out2

import gc
import hashlib
import json
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from orbichar import cli, complexes, series, wreath
from orbichar.cli import Fragment, json_text, main
from orbichar.groups import conjugacy_classes
from orbichar.library import builtin_group


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


@pytest.mark.parametrize(
    "argv",
    [
        "verify jcount --n 6 --m 2",
        "wreath classes --group S3 --n 3",
        "verify main --complex point --group S3 --m 2 --order 3",
        "euler --complex point --group S3 --gamma Z",
        "verify hodge --complex point-Z2 --order 4",
        "verify macdonald --complex point --group Z2 --order 3",
    ],
)
def test_repeated_main_leaves_no_reference_cycles(capsys, argv):
    # the parser is built once per process, not once per call
    main(argv.split())
    gc.collect()
    gc.disable()
    try:
        main(argv.split())
        left = gc.collect()
    finally:
        gc.enable()
    capsys.readouterr()
    assert left == 0


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


def test_euler_json_listed_vertex_is_isolated_point(tmp_path, capsys):
    path = tmp_path / "edge-and-two-points.json"
    path.write_text(json.dumps({"vertices": 4, "maximal_simplices": [[0, 1]]}))
    code, report = run_json(
        capsys, "euler", "--complex", str(path), "--gamma", "trivial"
    )
    assert code == 0
    assert report["chi_gamma_top"] == 3
    assert report["sectors"][0]["fixed_f_vector"] == [4, 1]


@pytest.mark.parametrize(
    "spec",
    [
        {"vertices": [0, 1], "maximal_simplices": [[0, "x"]]},
        {"vertices": "ab", "maximal_simplices": [[0]]},
        {"vertices": 2, "maximal_simplices": [[0], [1]], "action": {"g": [1, "x"]}},
        {"vertices": 2, "maximal_simplices": [[0], [1]], "action": {"g": [1, 7]}},
        {"vertices": 2, "maximal_simplices": [[0], [1]], "action": {"g": 5}},
        {"vertices": 2, "maximal_simplices": [[0], [1]], "action": [1, 0]},
        {"maximal_simplices": [[0, 1, 2, 2]]},
        {"vertices": 2, "maximal_simplices": [[0, 1, 2]]},
    ],
    ids=["mixed-ids", "vertex-string", "action-id", "action-range",
         "action-row", "action-list", "repeated-vertex", "unlisted-vertex"],
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


@pytest.mark.parametrize(
    "spec,size",
    [
        ({"vertices": 1000, "maximal_simplices": []}, 1000),
        ({"vertices": list(range(1000)), "maximal_simplices": []}, 1000),
        ({"maximal_simplices": [list(range(10))]}, 1023),
    ],
    ids=["isolated-vertex-count", "isolated-vertex-list", "10-simplex"],
)
def test_json_complex_capped_before_it_is_built(tmp_path, capsys, monkeypatch, spec, size):
    monkeypatch.setattr(complexes, "DEFAULT_SIMPLEX_CAP", 100)

    def never(maximal):
        raise AssertionError("closed the simplices before the cap")

    monkeypatch.setattr(complexes, "from_maximal", never)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "euler", "--complex", str(path), "--gamma", "trivial")
    assert (code, out) == (3, "")
    assert f"{size} faces and points, above simplex cap 100" in err


def test_json_complex_at_the_cap_builds(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(complexes, "DEFAULT_SIMPLEX_CAP", 100)
    path = tmp_path / "at-cap.json"
    # 2^6 - 1 faces of the 5-simplex and 37 listed points
    path.write_text(json.dumps({"vertices": 37, "maximal_simplices": [list(range(6))]}))
    code, report = run_json(capsys, "euler", "--complex", str(path), "--gamma", "trivial")
    assert code == 0
    assert report["sectors"][0]["fixed_f_vector"] == [37, 15, 20, 15, 6, 1]


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


def test_wreath_classes_type_cap(capsys):
    # The count comes from the point series on doubling prefixes of n,
    # before any type is enumerated.  S3 ~ S_32 already has 34,034,391 of
    # the 481,225,800 classes of S3 ~ S_40, and Z2 ~ S_32 has 1,046,705,
    # so n = 20000 trips without a series of that order.
    cases = [("S3", "40", 34034391), ("Z2", "20000", 1046705)]
    for group, n, prefix_count in cases:
        started = time.monotonic()
        code, out, err = run(
            capsys, "wreath", "classes", "--group", group, "--n", n
        )
        assert time.monotonic() - started < 1
        assert code == 3 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"{group} ~ S_{n} has at least {prefix_count} conjugacy classes" in err
        assert f"type cap {wreath.TYPE_CAP}" in err
        assert f"{group} ~ S_32 has {prefix_count}" in err


def test_wreath_classes_at_the_type_cap(capsys, monkeypatch):
    # Z2 ~ S_4 has 20 classes: a cap of 20 lets it through, 19 does not
    monkeypatch.setattr(wreath, "TYPE_CAP", 20)
    code, report = run_json(capsys, "wreath", "classes", "--group", "Z2", "--n", "4")
    assert code == 0 and report["class_count"] == 20
    monkeypatch.setattr(wreath, "TYPE_CAP", 19)
    code, out, err = run(capsys, "wreath", "classes", "--group", "Z2", "--n", "4")
    assert code == 3 and out == "" and "has 20 conjugacy classes" in err
    # n = 5 trips on its prefix 4
    code, out, err = run(capsys, "wreath", "classes", "--group", "Z2", "--n", "5")
    assert code == 3 and out == "" and "has at least 20 conjugacy classes" in err


def test_wreath_centralizers(capsys):
    code, report = run_json(
        capsys, "wreath", "centralizers", "--group", "Z3", "--n", "2"
    )
    assert code == 0
    assert report["pass"] and all(r["equal"] for r in report["rows"])


def test_wreath_rows_render_each_entry_once(capsys, monkeypatch):
    # each type entry's text is built once per job, however many rows list it
    rendered = []
    real = cli._text

    def counting(obj, indent, out):
        if isinstance(obj, dict) and obj.keys() == {"class", "r", "m"}:
            rendered.append((obj["class"], obj["r"], obj["m"]))
        real(obj, indent, out)

    monkeypatch.setattr(cli, "_text", counting)
    code, report = run_json(capsys, "wreath", "classes", "--group", "D4", "--n", "6")
    assert code == 0
    entries = [(e["class"], e["r"], e["m"]) for row in report["rows"] for e in row["type"]]
    distinct = set(entries)
    assert len(entries) > 10 * len(distinct)
    assert sorted(rendered) == sorted(distinct)


def wreath_classes_oracle(group: str, n: int) -> dict:
    """The ``wreath classes`` report built type by type: ``all_types``, one
    ``centralizer_order_by_formula`` call and one dict per row."""
    base = builtin_group(group)
    labels = [base.label(k.representative) for k in conjugacy_classes(base)]
    order = wreath.WreathProduct(base, n).order
    rows = []
    for t in wreath.all_types(base, n):
        cent = wreath.centralizer_order_by_formula(base, n, t)
        rows.append({
            "type": [{"class": labels[c], "r": r, "m": m} for (c, r), m in t.entries],
            "centralizer_order": cent,
            "class_size": order // cent,
        })
    return {
        "command": "wreath-classes",
        "group": group,
        "n": n,
        "wreath_order": order,
        "class_count": len(rows),
        "rows": rows,
    }


@pytest.mark.parametrize("group", ["trivial", "Z2", "Z3", "S3", "D4", "S4", "Z4", "D6"])
def test_wreath_classes_match_the_type_by_type_oracle(capsys, group):
    for n in range(9):
        code, report = run_json(capsys, "wreath", "classes", "--group", group, "--n", str(n))
        assert code == 0
        assert report == wreath_classes_oracle(group, n), n


# sha256 of stdout, recorded before type entries were shared between rows
WREATH_REPORT_HASHES = {
    ("classes", "D4", "6"): "af46470fb6ab6ec240eda2a5734ff5b1da6fe2ed043fadf5fb8e63bd3ba51892",
    ("classes", "S3", "5"): "3c538fac8598b569decb1a585094e9d157f587ac297f3ac903783af6909915ad",
    ("classes", "trivial", "8"): "0b488d5f12c351a26b301379d0b55e405caed5f02f3d9bd624c990873c407ef7",
    ("classes", "S4", "4"): "e48141ce2b68b1299cb002127a28c6f1ff55dba3e822de199ad746ebfab5a908",
    # these two recorded before rows were written from one trie walk
    ("classes", "S4", "8"): "c0fd1d2d91f4f6f0f5f68bc09a40bad68d655ae44c58fcb4e0ca403c82f894e6",
    ("classes", "D4", "8"): "8999d1392583a40911f60e69a3505b221fbb42b95dd9fdc22ca611bd261eda11",
    ("centralizers", "Z2", "3"): "d6b3e9b6cd740c55a64006213e4358f96f9bdc6e9687d60d761ce47df8848e2a",
    ("centralizers", "S3", "3"): "785f08ab9fbefefa77df3549c7265653a7ddaeefce4dacf942d05d6750bd6953",
    ("centralizers", "D4", "2"): "d25b7107bff71e142beb0f3b25fe91adef8119aa100580aed9441b14a209dfc7",
}


@pytest.mark.parametrize("what,group,n", sorted(WREATH_REPORT_HASHES))
def test_wreath_reports_unchanged(capsys, what, group, n):
    code, out, err = run(capsys, "wreath", what, "--group", group, "--n", n)
    assert code == 0 and err == ""
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == WREATH_REPORT_HASHES[what, group, n]


# sha256 of stdout, recorded before fixed subcomplexes were read from the
# fixed vertices' stars and each sector's invariants were computed once
SECTOR_REPORT_HASHES = {
    ("euler", "--complex", "circle(3)", "--group", "D6", "--gamma", "Z^3"):
        "5c9b988cbe461fb58967274de92e77f9b38c8e727b58cbd61414c90d99737024",
    ("euler", "--complex", "circle(4)", "--group", "D6", "--gamma", "Z^2"):
        "9123ad9ae03a7b1ca53cbfba1eb05e4711caf4f93d8948f0cb4eefe2f9dbc2b6",
    ("euler", "--complex", "octahedron", "--group", "S3", "--gamma", "F_2"):
        "4e56c2f8184c0a854e135dedc42e519a137497173a41032b8280110f610cf2b1",
    ("euler", "--complex", "torus", "--group", "Z2"):
        "b97d6bd18daf263d2afe8c8f94528cf298d9f1ee0c8a2d7b599843c9a6d8118f",
    ("verify", "sectors", "--complex", "circle4-rotation", "--gamma", "Z,Z"):
        "ad524840044cf16ec86eebec5f03f57a2913597c623ff188bb1d61990aac644c",
    ("verify", "main", "--complex", "edge-swap", "--m", "2", "--order", "3"):
        "0852237e6769dec321626e8c1937d072a0a59aa17032aed629849308b1ac9dfd",
    ("verify", "macdonald", "--complex", "edge-swap", "--order", "3"):
        "84a9afab079982b8f68a18e26776e6aeb4100db1f0d58a96157e3d4517566167",
    ("verify", "products"):
        "5994ba356d26003c1bdc15ceb4ad315989a897f2f5069b48a2c4150fc945f23c",
    ("verify", "products", "--gamma", "Z^2"):
        "1e9a740f2e8b7ba543bf3e5dc56732254b6574d30f597eb99a777b97a4f78f7e",
}


@pytest.mark.parametrize(
    "argv", sorted(SECTOR_REPORT_HASHES), ids=" ".join
)
def test_sector_reports_unchanged(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == SECTOR_REPORT_HASHES[argv]


# sha256 of stdout, recorded before homomorphism classes came from the
# orderly walk and sector subgroups built their tables on first read
POINT_SECTOR_REPORT_HASHES = {
    ("euler", "--complex", "point", "--group", "D60", "--gamma", "Z^2"):
        "afdea2e40d954ae20791e5fe21882128662a32825a69d8e0379d151058eeadbf",
    ("euler", "--complex", "point", "--group", "D12", "--gamma", "Z^4"):
        "549e3d1cc449b55313e388d70451266d1e7e067069b12c2ac26433c9fba46da4",
}


@pytest.mark.parametrize(
    "argv", sorted(POINT_SECTOR_REPORT_HASHES), ids=" ".join
)
def test_point_sector_reports_unchanged(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == POINT_SECTOR_REPORT_HASHES[argv]


# sha256 of stdout, recorded before classes with one fixed vertex set and
# one centralizer shared a sector (the `verify sectors` entry: before the
# iterated side shared its inner decompositions)
SHARED_SECTOR_REPORT_HASHES = {
    ("euler", "--complex", "point", "--group", "D100", "--gamma", "Z^2"):
        "8d547578c19097001fb4ffcc035a16fcd2edb498d7d849175a5987ace756e88f",
    ("euler", "--complex", "circle(12)", "--group", "D12", "--gamma", "Z^3"):
        "28c19f89e7e64a604b046536d39f9193dc124474683e5ab0e27aa7d4589079ea",
    ("verify", "sectors", "--complex", "point", "--group", "D12", "--gamma", "Z^2,Z"):
        "c4ed916ebb87eb4368fbb261b32e86f2a35fa968b7a6c3f9e2df89b15545fbf3",
}


@pytest.mark.parametrize(
    "argv", sorted(SHARED_SECTOR_REPORT_HASHES), ids=" ".join
)
def test_shared_sector_reports_unchanged(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == SHARED_SECTOR_REPORT_HASHES[argv]


def test_wreath_centralizer_cap(capsys):
    # |Z2 ~ S_2000| has about 6,300 digits, more than str converts: the
    # message names the order as 2^2000 * 2000!
    for group, n in [("S3", "4"), ("Z2", "2000")]:
        code, out, err = run(
            capsys, "wreath", "centralizers", "--group", group, "--n", n
        )
        assert code == 3 and out == "" and "cap" in err.lower()
        assert err.startswith("error:") and err.count("\n") == 1
    assert "2^2000 * 2000!" in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (("verify", "hodge", "--complex", "point-Z2", "--order", "60"),
         "sums at least 4062064 sector types of 2 sectors (4062064 to order 32)"),
        (("verify", "hodge", "--complex", "point-Z2", "--order", "100000"),
         "sums at least 4062064 sector types of 2 sectors (4062064 to order 32)"),
        (("verify", "hodge", "--complex", "point-Z2", "--order", "1000000000"),
         "sums at least 4062064 sector types of 2 sectors (4062064 to order 32)"),
        (("wreath", "centralizers", "--group", "Z2", "--n", "400000"),
         "wreath order 2^400000 * 400000! exceeds"),
        (("euler", "--complex", "point", "--gamma", "F_5000"),
         "F_k with 5000 generators: |G|^k exceeds enumeration cap 100000000"),
        (("verify", "sectors", "--complex", "point", "--gamma", "F_3000,Z"),
         "F_k with 3000 generators"),
        (("euler", "--complex", "point", "--gamma", "Z^2000"),
         "Z^k with 2000 generators"),
        (("euler", "--complex", "point", "--gamma", "F_30"),
         "F_k with 30 generators: |G|^k exceeds enumeration cap 100000000 for"
         " every group of order >= 2 once k > 26"),
        (("euler", "--complex", "point", "--gamma", "Z^" + "9" * 5000),
         "Z^k with a 5000-digit number of generators"),
        (("euler", "--complex", "point", "--gamma", "F_" + "9" * 5000),
         "F_k with a 5000-digit number of generators"),
        (("euler", "--complex", f"circle({'9' * 5000})", "--gamma", "Z"),
         "circle(k) with a 5000-digit k has more simplices than the simplex cap 1000000"),
        (("euler", "--complex", "circle(600000)", "--gamma", "Z"),
         "circle(600000) has 1200000 simplices, above simplex cap 1000000"),
    ],
    ids=[
        "hodge-types", "hodge-types-huge-order", "hodge-types-order-1e9", "wreath-order",
        "gamma-F5000", "gamma-F3000-sectors", "gamma-Z2000", "gamma-F30",
        "gamma-Z-5000-digits", "gamma-F-5000-digits", "circle-5000-digits",
        "circle-600000",
    ],
)
def test_cap_trips_before_the_work(capsys, argv, named):
    # the Hodge type count is predicted on doubling prefixes of the order,
    # and the wreath order is compared through a running product, so
    # neither size is computed in full first.  A free or free abelian Γ
    # of k > 26 generators is past the candidate cap on every group of
    # order >= 2 and is refused before its relators or the one-element
    # group's walk; circle(k) counts its 2k simplices before building them
    started = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - started < 1
    assert code == 3 and out == ""
    assert err.startswith("error: cap exceeded:") and err.count("\n") == 1
    assert named in err


def test_macdonald_product_chain_cap_trips_before_the_work(capsys):
    # the square of the octahedron has 3,113,860 chains; they are counted
    # from the factors' f-vectors, so both parts stop at n = 2 at once with
    # the report the enumeration gave when it tripped
    started = time.monotonic()
    code, out, err = run(
        capsys,
        *"verify macdonald --complex octahedron-antipodal --order 3".split(),
    )
    assert time.monotonic() - started < 0.25
    assert code == 3
    assert err == (
        "error: cap exceeded: wreath power n=2:"
        " chain enumeration exceeds simplex cap 1000000\n"
    )
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "238f04cb9d0141e77cfc4eca41cc041aa4200a0741eb7dd240a0317244236a2c"
    )


@pytest.mark.parametrize("group, n", [("Z5", "4"), ("D4", "3")])
def test_wreath_centralizers_need_no_table(capsys, group, n):
    # |W| = 15000 and 3072: within the cross-check cap, but far past any
    # |W|^2 table; the classes come from generator orbits
    started = time.monotonic()
    code, report = run_json(
        capsys, "wreath", "centralizers", "--group", group, "--n", n
    )
    assert time.monotonic() - started < 20
    assert code == 0 and report["pass"]


def test_wreath_euler_table_cap(capsys):
    for n in ("4", "1800"):
        started = time.monotonic()
        code, out, err = run(capsys, "wreath", "euler", "--group", "S3", "--n", n)
        assert time.monotonic() - started < 5
        assert code == 3 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
    assert "6^1800 * 1800!" in err


@pytest.mark.parametrize(
    "group",
    ["Z10000", "S7", "D3000", pytest.param("Z" + "1" * 5000, id="Z-5000-digits")],
)
def test_builtin_group_order_cap(capsys, group):
    # the order is checked before any table is built
    started = time.monotonic()
    code, out, err = run(
        capsys, "euler", "--complex", "point", "--group", group, "--gamma", "trivial"
    )
    assert time.monotonic() - started < 5
    assert code == 3 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "cap 2000" in err and "Traceback" not in err


def test_dihedral_group_at_the_cap_in_time(capsys):
    # order 2000, at the cap: the table is closed from generator rows, not
    # by composing every pair of degree-1000 permutations
    started = time.monotonic()
    code, report = run_json(
        capsys, "euler", "--complex", "point", "--group", "D1000", "--gamma", "trivial"
    )
    assert time.monotonic() - started < 20
    assert code == 0 and report["group_order"] == 2000


def test_wreath_euler_simplex_cap_trips_in_time(capsys):
    # the 4-fold power of the triangle fails the certificate, and the
    # simplex cap trips while subdividing it; checking the certificate on
    # its 194,400 simplices must not take long
    started = time.monotonic()
    code, out, err = run(
        capsys, "wreath", "euler", "--group", "Z2", "--n", "4",
        "--complex", "circle(3)",
    )
    assert time.monotonic() - started < 30
    assert code == 3 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_wreath_euler_s3_cubed_in_time(capsys):
    # |W| = 1296: the explicit table is built from integer codes
    started = time.monotonic()
    code, report = run_json(capsys, "wreath", "euler", "--group", "S3", "--n", "3")
    assert time.monotonic() - started < 5
    assert code == 0 and report["chi_es"] == "1/1296" and report["pass"]


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


@pytest.mark.parametrize("m", ["0", "1"])
def test_verify_main_negative_order_is_bad_input(capsys, m):
    code, out, err = run(
        capsys, "verify", "main", "--complex", "point", "--m", m, "--order", "-1"
    )
    assert code == 2 and out == ""
    assert err == "error: truncation order must be >= 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        "exp --complex point",
        "macdonald --complex point",
        "hodge --complex point-Z2",
        "hodge",
    ],
)
def test_verify_negative_order_is_bad_input(capsys, argv):
    code, out, err = run(capsys, "verify", *argv.split(), "--order", "-1")
    assert code == 2 and out == ""
    assert err == "error: truncation order must be >= 0\n"


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


@pytest.mark.parametrize(
    "bounds",
    [
        ("--n", "0"),
        ("--m", "0"),
        ("--n", "-3", "--m", "2"),
        ("--n", "0", "--m", "0"),
    ],
)
def test_verify_jcount_needs_a_nonempty_range(capsys, bounds):
    # an empty table is bad input, not a vacuous pass
    code, out, err = run(capsys, "verify", "jcount", *bounds)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "n, m, named",
    [
        (
            "60",
            "3",
            "closes at least 1277451 residues (through r=39, m=3) and takes"
            " 756460 matrix entries and adjugate steps, 2033911 in all",
        ),
        (
            "20",
            "4",
            "closes at least 633894 residues (through r=16, m=4) and takes"
            " 1563264 matrix entries and adjugate steps, 2197158 in all",
        ),
        ("3000000", "1", "closes at least 3000000 residues (one per row)"),
    ],
)
def test_jcount_cap_trips_before_the_brute_force(capsys, monkeypatch, n, m, named):
    def no_brute_force(*args, **kwargs):
        raise AssertionError("the brute force ran before the cap")

    monkeypatch.setattr(series, "sublattice_count_bruteforce", no_brute_force)
    started = time.monotonic()
    code, out, err = run(capsys, "verify", "jcount", "--n", n, "--m", m)
    assert time.monotonic() - started < 1
    assert code == 3 and out == ""
    assert err.startswith("error: cap exceeded:") and err.count("\n") == 1
    assert named in err and "residue cap 2000000" in err


def test_jcount_below_the_cap_unchanged(capsys):
    # 13,899 residues; sha256 of stdout recorded before the cap existed
    code, out, err = run(capsys, "verify", "jcount", "--n", "12", "--m", "3")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "29bfb1f66fc052e8b59da7a6e13b86c7270f2571a5ae337d75d875bd56f45746"
    )


def test_jcount_n20_m3_unchanged(capsys):
    # 92,473 residues; sha256 of stdout recorded while the brute force
    # still deduplicated by row spans (1,457,591 residues)
    code, out, err = run(capsys, "verify", "jcount", "--n", "20", "--m", "3")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "376580a91513b1f9992105171e2280d78b5017f2bb7d26684df709b83699ea52"
    )


@pytest.mark.parametrize("n, m", [("30", "3"), ("12", "4")])
def test_jcount_runs_what_the_row_spans_could_not(capsys, n, m):
    # over the cap while each candidate closed r^(m-1) residues; at r
    # residues each from m = 3 on they total 814,051 and 686,635 with the
    # matrix entries and adjugate steps
    started = time.monotonic()
    code, report = run_json(capsys, "verify", "jcount", "--n", n, "--m", m)
    assert time.monotonic() - started < 10
    assert code == 0 and report["equal"] is True


@pytest.mark.parametrize(
    "n, m",
    [("1", "1500"), ("1", "200"), ("1", "80")],
)
def test_jcount_cap_counts_matrix_entries(capsys, monkeypatch, n, m):
    # one residue per row, but each candidate also fills an m x m matrix
    # and takes m (m+1) (m+2) / 6 adjugate steps: the running sum passes
    # the cap at m = 80, before any brute force and before the
    # factorization walk could exhaust the recursion limit
    def no_brute_force(*args, **kwargs):
        raise AssertionError("the brute force ran before the cap")

    monkeypatch.setattr(series, "sublattice_count_bruteforce", no_brute_force)
    started = time.monotonic()
    code, out, err = run(capsys, "verify", "jcount", "--n", n, "--m", m)
    assert time.monotonic() - started < 1
    assert code == 3 and out == ""
    assert err == (
        "error: cap exceeded: jcount brute force closes at least 80 residues"
        " (through r=1, m=80) and takes 2011495 matrix entries and adjugate"
        " steps, 2011575 in all, above the residue cap 2000000\n"
    )


def test_jcount_runs_just_under_the_adjugate_cap(capsys):
    # --n 1 --m 79: 1,916,614 in all, the largest m at --n 1 under the cap
    started = time.monotonic()
    code, report = run_json(capsys, "verify", "jcount", "--n", "1", "--m", "79")
    assert time.monotonic() - started < 5
    assert code == 0 and report["equal"] is True


# sha256 of stdout, recorded before the factors of the Hodge right side were
# built in closed form, its left side walked a type trie and the jcount
# spans were closed as sums of cyclic subgroups
_PINNED_STDOUT = {
    "verify hodge --complex point-Z2 --order 10":
        "5de05e74607e1d241504f609ec12bba295d8d4f2d88f5e06f6bf93127513e4bd",
    "verify hodge --complex two-sector-shifted --order 8":
        "18804b31e3b067f5c5661baf0095037893012a9839f35e3ec3da0baae73a7503",
    "verify hodge --complex abelian-surface --order 5":
        "bfa408dc622e7f16ffd5398f0334e8a575d504b836fdcc61adb4c2c4919be2d8",
    "verify hodge --order 6":
        "e6bc097e3909c4a3e1f4c92b7200975cd9d646064f45ae9bcffbc714b9478979",
    "verify jcount --n 16 --m 2":
        "409aeac2fe39f0db803515cf2d7c9424b30cbf487adb79272dec74d5dd3faabb",
    "verify jcount --n 8 --m 3":
        "e729051e95bb4273481e9eaeb49de9b54b98dd6661a9a2118cf267d395c47c1d",
    # recorded before the series products lost their generic ring
    "verify hodge --complex abelian-surface --order 8":
        "164135eface4b72dece8af1306ee09a48d32551b7e0c2257696065d30edaf25e",
    # recorded while every Hodge polynomial was still a HodgePolynomial
    "verify hodge --complex two-sector-shifted --order 12":
        "55938907059447fa2214c9281e006d809adb4fcdb895375cb3ab135d6b8901a4",
    "verify hodge --order 8":
        "37498d5a9cf6cd32d0d8ccfe177d5b8dbfc035e13c7984a2d6fb07210a22ea1b",
}


@pytest.mark.parametrize("argv", sorted(_PINNED_STDOUT))
def test_hodge_and_jcount_reports_pinned(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_STDOUT[argv]


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


def test_verify_hodge_huge_dims_cost_nothing_extra(tmp_path, capsys):
    # the symmetric and exterior powers of a 10^9-dimensional class take
    # at most order^2 steps per bidegree, as the right side's closed form
    dims = {"0,0": 10**9, "1,0": 10**9, "0,1": 10**9, "1,1": 10**9}
    spec = {
        "d": 2,
        "sectors": [
            {"class": "e", "component": 0, "dims": dims, "angles": [], "d": 2}
        ],
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(spec))
    started = time.monotonic()
    code, report = run_json(
        capsys, "verify", "hodge", "--complex", str(path), "--order", "5"
    )
    assert time.monotonic() - started < 5
    assert code == 0 and report["equal"] is True


def _one_sector(**fields) -> dict:
    """A dataset of one valid point sector, with ``fields`` replaced."""
    sector = {"class": "g", "component": 0, "dims": {"0,0": 1}, "angles": [], "d": 0}
    return {"d": 0, "sectors": [dict(sector, **fields)]}


@pytest.mark.parametrize(
    "spec, named",
    [
        ({"d": "two", "sectors": []}, "'d' must be an int"),
        ({"d": 2, "sectors": [5]}, "not a JSON object"),
        (_one_sector(angles=["1/0"]), "Fraction(1, 0)"),
        (_one_sector(dims={"-1,1": 1}), "bidegree (-1,1)"),
        # an int field is taken as it is, never truncated or read from a bool
        (_one_sector(component=0.9), "'component' must be an int, got 0.9"),
        (_one_sector(d=0.7), "'d' must be an int, got 0.7"),
        (_one_sector(dims={"0,0": 1.5}), "dimension at '0,0' must be an int, got 1.5"),
        (_one_sector(component=True), "'component' must be an int, got True"),
        (_one_sector(dims={"0,0": True}), "dimension at '0,0' must be an int, got True"),
        (_one_sector(dims={"0,0": 1, " 0 , 0 ": 1}), "bidegree (0,0) is given twice"),
    ],
    ids=[
        "d-string", "sector-int", "angle-over-zero", "negative-bidegree",
        "component-float", "sector-d-float", "dim-float", "component-bool",
        "dim-bool", "repeated-bidegree",
    ],
)
def test_verify_hodge_json_file_rejects_malformed(tmp_path, capsys, spec, named):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(
        capsys, "verify", "hodge", "--complex", str(path), "--order", "4"
    )
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in err
    assert named in err


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
        return real(r, m) + 1 if (r, m) == (2, 2) else real(r, m)

    monkeypatch.setattr("orbichar.cli.series.subgroup_count", crooked)
    code, report = run_json(capsys, "verify", "jcount", "--n", "3", "--m", "2")
    assert code == 1 and not report["equal"]


CAPPED_SERIES = [
    ("exp", "--complex", "S0-swap", "--order", "6"),
    ("main", "--complex", "S0-swap", "--m", "1", "--order", "6"),
    ("macdonald", "--complex", "S0-swap", "--order", "6"),
]


@pytest.mark.parametrize("argv", CAPPED_SERIES)
def test_capped_series_check_exits_3(capsys, argv):
    # |Z2 wr S5| = 3840 is past the table cap, so the series stops at n = 4;
    # the partial report still prints
    code, out, err = run(capsys, "verify", *argv)
    report = json.loads(out)
    parts = [report.get("part1", report), report.get("part2", report)]
    assert code == 3
    assert all(len(p["lhs"]) == 5 and "mismatch_index" not in p for p in parts)
    assert err == (
        "error: cap exceeded: wreath power n=5: wreath product order 3840"
        " exceeds cap 2000\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        # the triangulated squares pass the simplex cap; product cells need
        # no triangulation
        ("main", "--complex", "octahedron-antipodal", "--m", "1", "--order", "4"),
        ("exp", "--complex", "torus-trivial", "--order", "6"),
    ],
)
def test_product_cell_left_sides_reach_past_the_triangulation(capsys, argv):
    start = time.perf_counter()
    code, report = run_json(capsys, "verify", *argv)
    assert time.perf_counter() - start < 2
    assert code == 0 and report["equal"] and "cap" not in report


def test_hom_cap_note_on_a_wreath_power(capsys):
    # |Z2 wr S2|^9 = 8^9 passes the homomorphism cap at n = 2
    code, out, err = run(
        capsys, "verify", "main", "--complex", "S0-swap", "--m", "9", "--order", "3"
    )
    assert code == 3 and json.loads(out)["lhs"] == ["1", "1"]
    assert err == (
        "error: cap exceeded: wreath power n=2: |G|^k = 8^9 exceeds enumeration"
        " cap 100000000\n"
    )


def test_macdonald_parts_share_their_wreath_powers(capsys, monkeypatch):
    sizes = []
    real = series.power_with_wreath_action

    def counted(rec, n):
        sizes.append(n)
        return real(rec, n)

    monkeypatch.setattr(series, "power_with_wreath_action", counted)
    code, report = run_json(
        capsys, "verify", "macdonald", "--complex", "S0-swap", "--order", "3"
    )
    assert code == 0 and report["equal"]
    assert sizes == [1, 2, 3]


def test_macdonald_point_part2_dimension_from_z_sectors(capsys, monkeypatch):
    # D_Z over a point counts the Z-sectors; the left side counts types
    presentations = []
    real = series.gamma_sectors

    def counted(rec, presentation):
        presentations.append(presentation)
        return real(rec, presentation)

    monkeypatch.setattr(series, "gamma_sectors", counted)
    code, report = run_json(
        capsys, "verify", "macdonald", "--complex", "point", "--group", "S4",
        "--order", "6",
    )
    assert code == 0 and report["equal"]
    assert report["part1"]["dimension"] == 1
    assert report["part2"]["dimension"] == len(conjugacy_classes(builtin_group("S4")))
    assert [(p.generators, p.relators) for p in presentations] == [(1, ())]


# exit code, sha256 of stdout and stderr, recorded before the wreath series
# left sides came from one routine
_PINNED_SERIES = {
    "verify exp --complex point --group S4 --order 20": (
        0, "74a72983a69e23d7bda5556a10bf53f25943666027b2ccf7e487eec445872471", ""
    ),
    "verify main --complex point --group S4 --m 4 --order 4": (
        0, "47f3cbf0619016892b8218e8511119fd04f8782ec27e95273e0b11e7e9eba9bd", ""
    ),
    "verify main --complex point --group D4 --m 0 --order 5": (
        0, "0aedc7340de8e5add899c79af2e0ac41e5320e03f91fa6cac957ec599ecbd889", ""
    ),
    "verify macdonald --complex point --group S4 --order 10": (
        0, "4d06d3edb267e68d099a786cc080d4d0f59efd9853489e26332d6289cad96228", ""
    ),
    "verify macdonald --complex point-S3 --order 8": (
        0, "8317b38795dd3980a5279e0cff8f3c8133bed0d87eb9f7dcfa75085ec167c46a", ""
    ),
    "verify macdonald --complex edge-swap --order 3": (
        0, "84a9afab079982b8f68a18e26776e6aeb4100db1f0d58a96157e3d4517566167", ""
    ),
    "verify main --complex S0-swap --m 1 --order 6": (
        3,
        "88b71474bb65f7d231004176ef2e9843115f46351d6df27cc34d98289f27e0cc",
        "error: cap exceeded: wreath power n=5: wreath product order 3840"
        " exceeds cap 2000\n",
    ),
    # recorded before the series products lost their generic ring
    "verify main --complex point-Z2 --m 1 --order 300": (
        0, "9421d1ed80249f49a57f06c6cfe9f049089aab68838de9bdf954f1c5fffb2bfe", ""
    ),
    "verify macdonald --complex point-Z2 --order 300": (
        0, "69f33e075f70047d86479632582a002594ba888e11f272c7233e75b8f607c02b", ""
    ),
    "verify exp --complex point-S3 --order 30": (
        0, "4e64f3c6f6ff0badc9256e4e0dfbbe3b106935aab18b60b7d518041b53916274", ""
    ),
}


@pytest.mark.parametrize("argv", sorted(_PINNED_SERIES))
def test_wreath_series_reports_pinned(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest, err) == _PINNED_SERIES[argv]


# sha256 of stdout, recorded while point chi_(m) still recursed through
# extension tables
_POINT_TOWER_HASHES = {
    "verify main --complex point --group S4 --m 4 --order 10":
        "7f8ff31e2759eaf9951c566e6117743fa5df11b60a6e64bce22eef7b97664b52",
    "verify main --complex point --group S4 --m 5 --order 8":
        "ea7118ef4e4f1ac3dd1701151aeeec39da42501f3ddeffc6e4d18c07d069bd17",
    "verify main --complex point --group S3 --m 3 --order 60":
        "cbb4bf4971632fa06adcff0c9d9755521b55045f5e01f39258b4edb1c2c82ca7",
}


@pytest.mark.parametrize("argv", sorted(_POINT_TOWER_HASHES))
def test_point_tower_reports_pinned(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest, err) == (0, _POINT_TOWER_HASHES[argv], "")


@pytest.mark.parametrize(
    "argv",
    [
        "verify main --complex point --group D12 --m 3 --order 40",
        "verify main --complex point-S3 --m 6 --order 20",
    ],
)
def test_point_towers_past_the_extension_tables_in_time(capsys, argv):
    # each ran past 60 s while the left side built an extension table
    # per (class, r) and recursed into it
    started = time.monotonic()
    code, report = run_json(capsys, *argv.split())
    assert code == 0 and report["equal"]
    assert time.monotonic() - started < 5


def test_capped_series_check_with_a_mismatch_exits_1(capsys, monkeypatch):
    # force a mismatch below the cap by tampering with the formula side
    import orbichar.series as series_mod

    real = series_mod.rhs_exp_formula
    monkeypatch.setattr(
        "orbichar.series.rhs_exp_formula", lambda chi, order: real(chi + 1, order)
    )
    code, report = run_json(
        capsys, "verify", "exp", "--complex", "S0-swap", "--order", "6"
    )
    assert code == 1 and report["mismatch_index"] == 1 and "cap" in report


@pytest.mark.parametrize("group,order", [("Z2", 1424), ("S3", 1250), ("S4", 1081)])
def test_verify_exp_caps_the_printed_digits(capsys, group, order):
    # the last term, 1/(|G|^order * order!), would pass str()'s 4,300 digits
    # one order later than the largest that prints; the cap trips at once
    started = time.monotonic()
    code, out, err = run(
        capsys, "verify", "exp", "--complex", "point", "--group", group,
        "--order", str(order),
    )
    assert time.monotonic() - started < 1
    assert code == 3 and out == ""
    assert err.startswith("error: cap exceeded: exp formula to order") and err.count("\n") == 1
    assert f"printed-digit cap {series.PRINTED_DIGITS_CAP}" in err


@pytest.mark.parametrize("flag", ["--cap-homs", "--cap-simplices"])
def test_cap_flags_are_gone(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "products", flag, "5"])
    assert exc.value.code == 2


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


@pytest.mark.parametrize("where", ["missing/report.json", "."])
def test_unwritable_out_is_bad_input(tmp_path, capsys, where):
    # a missing directory or a directory: refused before any work
    code, out, err = run(
        capsys, "verify", "jcount", "--n", "3", "--m", "1", "--out", str(tmp_path / where)
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno ") and err.count("\n") == 1


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


# one small argv per subcommand
ROUND_TRIP = [
    ("euler", "--complex", "circle(4)", "--group", "D4", "--gamma", "Z^2"),
    ("wreath", "classes", "--group", "S3", "--n", "3"),
    ("wreath", "centralizers", "--group", "Z2", "--n", "3"),
    ("wreath", "euler", "--group", "Z2", "--n", "2"),
    ("verify", "exp", "--complex", "point-S3", "--order", "4"),
    ("verify", "main", "--complex", "point", "--group", "S3", "--m", "2", "--order", "4"),
    ("verify", "macdonald", "--complex", "S0-swap", "--order", "2"),
    ("verify", "sectors"),
    ("verify", "products"),
    ("verify", "hodge", "--complex", "point-Z2", "--order", "4"),
    ("verify", "jcount", "--n", "4", "--m", "2"),
]


@pytest.mark.parametrize("argv", ROUND_TRIP, ids=[" ".join(a[:2]) for a in ROUND_TRIP])
def test_report_text_is_indented_sorted_json(capsys, argv):
    code, out, _err = run(capsys, *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


JSON_LEAVES = (
    st.text()
    | st.sampled_from(["", "\"", "\\", "\x00\x1f\n\t", "\u00e9\u2603", "\U0001f600"])
    | st.integers()
    | st.integers(min_value=2**64)
    | st.integers(max_value=-(2**64))
    | st.booleans()
    | st.none()
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_json_text_matches_json_dumps(obj):
    assert json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


@st.composite
def shared_reports(draw):
    """A report built from a small pool of dicts and lists, each of which
    may appear many times: in one list, at other depths, and inside other
    pooled containers.  The first two pooled objects are a leaf-only dict
    and a dict holding a list that holds it."""
    leaf = draw(st.dictionaries(st.text(max_size=3), JSON_LEAVES, min_size=1, max_size=3))
    pool = [leaf, {"row": [leaf, leaf], "n": 1}]
    for _ in range(draw(st.integers(0, 4))):
        items = draw(st.lists(JSON_LEAVES | st.sampled_from(pool), max_size=4))
        if draw(st.booleans()):
            keys = draw(st.lists(st.text(max_size=3), min_size=len(items),
                                 max_size=len(items), unique=True))
            pool.append(dict(zip(keys, items)))
        else:
            pool.append(items)
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    return {"rows": rows, "nested": [rows, [pool]], "pool": pool, "leaf": leaf}


_LEAF = {"class": "e", "m": 1, "r": 2}
_HOLDER = {"type": [_LEAF, _LEAF], "size": 3}


@settings(max_examples=200, deadline=None)
@given(shared_reports())
@example({"a": _LEAF, "b": [_LEAF, [_LEAF, _HOLDER]], "c": [_HOLDER, _HOLDER]})
def test_json_text_with_shared_objects(obj):
    assert json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


def _subvalues(obj, indent="\n", path=()):
    """(path, indent, value) for ``obj`` and every value inside it; the
    indent is the one the writer passes where the value stands."""
    yield path, indent, obj
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield from _subvalues(value, indent + "  ", path + (key,))


def _replaced(obj, path, new):
    if not path:
        return new
    key, rest = path[0], path[1:]
    if isinstance(obj, dict):
        return {**obj, key: _replaced(obj[key], rest, new)}
    items = list(obj)
    items[key] = _replaced(obj[key], rest, new)
    return type(obj)(items)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES, st.data())
def test_fragment_writes_its_value_in_place(obj, data):
    path, indent, value = data.draw(st.sampled_from(list(_subvalues(obj))))
    pieces = []
    cli._text(value, indent, pieces)
    expected = json.dumps(obj, indent=2, sort_keys=True)
    assert json_text(_replaced(obj, path, Fragment(pieces, indent))) == expected
    # a fragment rendered for another indentation is refused, not misprinted
    other = data.draw(st.sampled_from(["\n", "\n  ", "\n    ", ""]).filter(lambda s: s != indent))
    with pytest.raises(ValueError):
        json_text(_replaced(obj, path, Fragment(pieces, other)))


@pytest.mark.parametrize(
    "obj", [1.5, {1: "a"}, {"a": [set()]}, b"x", Fraction(1, 2)],
    ids=["float", "int-key", "set", "bytes", "fraction"],
)
def test_json_text_rejects_other_types(obj):
    with pytest.raises(TypeError):
        json_text(obj)

"""Command-line surface: exact text output, JSON records, exit codes."""

import json
import subprocess
import sys

import pytest

from linarr.arrangement import load_arrangement
from linarr.cli import main, run_verify
from linarr.derivations import load_multiarrangement
from linarr.errors import ParseError
from linarr.fixtures import ARRANGEMENT_FIXTURES, fixture_names, fixture_path


def path(name: str) -> str:
    return str(fixture_path(name))


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out.splitlines(), captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv, "--format", "json-lines")
    return rc, [json.loads(line) for line in out], err


# ------------------------------------------------------------------ output


def test_overlong_token_error_line_is_short(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "long.arr").write_text("field Q\nline 1 0 " + "9" * 5000 + "\n")
    rc, out, err = run(capsys, "chi", "long.arr")
    assert rc != 0 and out == []
    (line,) = err.splitlines()
    assert len(line) < 200
    assert "long.arr:2:10: bad rational '" + "9" * 32 + "…' (5000 chars)" in line


def test_exponents_rejects_total_multiplicity_above_cap(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.marr").write_text("field F 101\nmline 1 0 1000000\n")
    rc, out, err = run(capsys, "exponents", "big.marr")
    assert (rc, out) == (1, [])
    assert err == "error: big.marr: total multiplicity 1000000 is above 1024\n"


def test_chi_text(capsys):
    rc, out, _ = run(capsys, "chi", path("squares_diagonals.arr"))
    assert rc == 0
    assert out == ["t^2 - 12 t + 35 = (t-5)(t-7)"]
    rc, out, _ = run(capsys, "chi", path("star7_transversal_q.arr"))
    assert rc == 0
    assert out == ["t^2 - 8 t + 13"]
    rc, out, _ = run(capsys, "chi", path("pentagon_r5.arr"))
    assert out == ["t^2 - 10 t + 25 = (t-5)^2"]


def test_chi_json(capsys):
    rc, records, _ = run_json(capsys, "chi", path("squares_diagonals.arr"))
    assert rc == 0
    assert records == [
        {"n": 12, "b2": 35, "poly": "t^2 - 12 t + 35", "factored": "(t-5)(t-7)"}
    ]


def test_roots_output(capsys):
    rc, out, _ = run(capsys, "roots", path("star7_transversal_q.arr"))
    assert out == ["4 - sqrt(3), 4 + sqrt(3) (real-irrational)"]
    rc, out, _ = run(capsys, "roots", path("squares_diagonals.arr"))
    assert out == ["5, 7 (two-integer)"]
    rc, records, _ = run_json(capsys, "roots", path("squares_diagonals.arr"))
    assert records == [
        {"classification": "two-integer", "low": "5", "high": "7", "discriminant": 4}
    ]
    rc, records, _ = run_json(capsys, "roots", path("star7_transversal_q.arr"))
    assert records[0]["discriminant"] == 12
    assert records[0]["low"] == "4 - sqrt(3)"


def test_spectrum_output(capsys):
    rc, out, _ = run(capsys, "spectrum", path("squares_diagonals.arr"))
    assert out == ["3 2", "5 10"]
    rc, records, _ = run_json(capsys, "spectrum", path("squares_diagonals.arr"))
    assert records == [{"value": 3, "count": 2}, {"value": 5, "count": 10}]


def test_ziegler_output(capsys):
    rc, out, _ = run(capsys, "ziegler", path("f3_pencil.arr"))
    assert rc == 0
    assert out[0] == "field F 3"
    rows = sorted(out[1:])
    assert len(rows) == 4
    assert all(row.startswith("mline ") and row.endswith(" 1") for row in rows)
    rc, records, _ = run_json(capsys, "ziegler", path("f3_pencil.arr"))
    record = records[0]
    assert record["target"] == "infinity"
    assert record["multiplicities"] == [1, 1, 1, 1]
    assert record["size"] == 4


def test_ziegler_member_target(capsys):
    rc, records, _ = run_json(
        capsys, "ziegler", path("squares_diagonals.arr"), "--target", "member:2"
    )
    assert rc == 0
    assert records[0]["target"] == 2
    assert records[0]["size"] == 12


def test_exponents_of_multiarrangement_file(capsys):
    rc, out, _ = run(capsys, "exponents", path("m3333.marr"))
    assert rc == 0
    assert out == ["exp = (5,7)"]
    rc, records, _ = run_json(capsys, "exponents", path("m3333.marr"))
    assert records == [{"d1": 5, "d2": 7, "size": 12}]


def test_exponents_of_multiarrangement_file_refuses_a_member_target(capsys):
    rc, out, err = run(capsys, "exponents", path("m3333.marr"), "--target", "member:5")
    assert (rc, out) == (1, [])
    assert err == "error: a .marr file has no members; --target takes only 'infinity'\n"
    rc, out, _ = run(capsys, "exponents", path("m3333.marr"), "--target", "infinity")
    assert (rc, out) == (0, ["exp = (5,7)"])


def test_exponents_of_restriction(capsys):
    rc, out, _ = run(
        capsys, "exponents", path("squares_diagonals.arr"), "--target", "member:2"
    )
    assert out == ["exp = (5,7)"]
    rc, records, _ = run_json(
        capsys, "exponents", path("squares_diagonals.arr"), "--target", "member:2"
    )
    assert records == [{"d1": 5, "d2": 7, "size": 12, "target": 2}]


def test_free_decision_output(capsys):
    rc, out, _ = run(capsys, "free", path("pentagon_r5.arr"))
    assert rc == 0
    assert out == ["free, exp = (5,5)"]
    rc, out, _ = run(capsys, "free", path("star7_transversal_q.arr"))
    assert out == ["not-free, exp = (1,7), b2 = 13 > 7"]
    rc, records, _ = run_json(capsys, "free", path("pentagon_r5.arr"))
    assert records == [
        {
            "verdict": "free",
            "exponents": [5, 5],
            "b2": 25,
            "d1": 5,
            "d2": 5,
            "target": "infinity",
        }
    ]
    rc, records, _ = run_json(
        capsys, "free", path("pentagon_r5.arr"), "--target", "member:0"
    )
    assert records[0]["verdict"] == "free"
    assert records[0]["target"] == 0


def test_criteria_output(capsys):
    rc, out, _ = run(capsys, "criteria", path("squares_diagonals.arr"))
    assert rc == 0
    assert out[0] == "free, exp = (5,7)"
    assert len(out) == 9
    assert out[1].startswith("root_incidence: applicable, free ")

    rc, records, _ = run_json(capsys, "criteria", path("squares_diagonals.arr"))
    assert records[0]["verdict"] == "free"
    assert "criterion" not in records[0]
    criteria = records[1:]
    assert [r["criterion"] for r in criteria] == [
        "root_incidence",
        "deletion_pair",
        "addition",
        "bracketing_sub",
        "intermediate_search",
        "subfree",
        "root_gap",
        "small_exponent_sub",
    ]
    for r in criteria:
        assert set(r) == {"criterion", "applicable", "conclusion", "evidence"}
        if r["applicable"] and r["conclusion"] != "no-conclusion":
            assert r["conclusion"] == "free"


def test_pair_output(capsys):
    from linarr.arrangement import load_arrangement

    A = load_arrangement(path("squares_diagonals.arr"))
    hit = A.n_counts.index(5)
    miss = A.n_counts.index(3)
    rc, records, _ = run_json(capsys, "pair", path("squares_diagonals.arr"), str(hit))
    assert rc == 0
    assert records[0]["criterion"] == "deletion_pair"
    assert records[0]["conclusion"] == "free"
    assert records[0]["evidence"]["common_root"] == 5
    rc, out, _ = run(capsys, "pair", path("squares_diagonals.arr"), str(miss))
    assert out[0].startswith("deletion_pair: applicable, no-conclusion ")


def test_order_output(capsys):
    rc, out, _ = run(capsys, "order", path("subfree_gap_a.arr"), "--sub", "0", "1")
    assert rc == 0
    assert out == ["order: 2 3 4 5 6 7", "counts: 1 1 3 3 3 3"]
    rc, records, _ = run_json(capsys, "order", path("squares_diagonals.arr"))
    record = records[0]
    assert record["sub"] == []
    assert sorted(record["order"]) == list(range(12))
    assert record["counts"] == sorted(record["counts"])


def test_fq_count_output(capsys):
    rc, out, _ = run(capsys, "fq-count", path("f3_three.arr"))
    assert rc == 0
    assert out == ["complement = 2, chi(3) = 2, OK"]
    rc, records, _ = run_json(capsys, "fq-count", path("f3_three.arr"))
    assert records == [{"p": 3, "complement": 2, "chi_at_p": 2, "ok": True}]


def test_fq_spectrum_output(capsys):
    rc, out, _ = run(capsys, "fq-spectrum", path("f3_pencil.arr"))
    assert rc == 0
    assert out == ["member 1 4", "external 3 8"]
    rc, records, _ = run_json(capsys, "fq-spectrum", path("f3_pencil.arr"))
    assert records == [
        {"bucket": "member", "value": 1, "count": 4},
        {"bucket": "external", "value": 3, "count": 8},
    ]


# ------------------------------------------------------------------ verify


def test_verify_every_shipped_arrangement(capsys):
    for name in fixture_names():
        if not name.endswith(".arr"):
            continue
        rc, out, err = run(capsys, "verify", path(name))
        assert rc == 0, (name, err)
        assert out[-1].startswith("verify: OK (")


def test_verify_check_lists(tmp_path, capsys):
    rc, out, _ = run(capsys, "verify", path("squares_diagonals.arr"))
    assert out[-1] == "verify: OK (7 checks)"
    # the plane checks stop at F_13
    f17 = tmp_path / "f17.arr"
    f17.write_text("field F 17\nline 1 0 0\nline 0 1 0\nline 1 1 1\n")
    rc, out, _ = run(capsys, "verify", str(f17))
    assert rc == 0 and out[-1] == "verify: OK (7 checks)"
    rc, out, _ = run(capsys, "verify", path("f3_all.arr"))
    assert out[-1] == "verify: OK (11 checks)"
    assert "ok complement-count" in out
    assert "ok finite-bounds" in out
    rc, records, _ = run_json(capsys, "verify", path("f3_all.arr"))
    assert records[-1] == {"verify": "ok", "checks": 11}
    assert {"check": "order-criteria", "status": "ok"} in records


@pytest.mark.parametrize("delta", ["1", "-1", "5", "-35"])
def test_verify_catches_corrupted_b2(capsys, delta):
    rc, out, err = run(
        capsys, "verify", path("squares_diagonals.arr"), "--corrupt-b2", delta
    )
    assert rc == 2
    assert err.startswith("invariant violation:")
    assert not out


def test_verify_corruption_over_prime_field(capsys):
    rc, _, err = run(capsys, "verify", path("f3_three.arr"), "--corrupt-b2", "1")
    assert rc == 2
    assert "deletion-restriction" in err or "chi" in err


def test_verify_zero_delta_is_clean(capsys):
    rc, out, _ = run(capsys, "verify", path("f3_three.arr"), "--corrupt-b2", "0")
    assert rc == 0


def test_verify_corruption_on_tiny_inputs(tmp_path, capsys):
    empty = tmp_path / "empty.arr"
    empty.write_text("field Q\n")
    rc, out, _ = run(capsys, "verify", str(empty))
    assert rc == 0
    one = tmp_path / "one.arr"
    one.write_text("field Q\nline 1 0 0\n")
    for target in (empty, one):
        rc, _, err = run(capsys, "verify", str(target), "--corrupt-b2", "1")
        assert rc == 2
        assert "b2" in err


def test_verify_shows_an_overlong_b2_by_its_size(capsys):
    delta = "9" * 4001
    rc, out, err = run(capsys, "verify", path("pencil3.arr"), "--corrupt-b2", delta)
    assert (rc, out) == (2, [])
    (line,) = err.splitlines()
    assert len(line) < 200
    size = (int(delta) + 2).bit_length()
    assert line == f"invariant violation: b2 = a {size}-bit integer outside [0, 3]"


def test_verify_plane_spectrum_must_match_root_window(monkeypatch):
    from linarr import fqscan
    from linarr.errors import InvariantViolation

    A = ARRANGEMENT_FIXTURES["f3_three"]()
    spectrum = fqscan.line_spectrum(A)
    # chi(|A| + 1) = |A| + 1 + b2 > 0, but no plane line meets A that often
    extra = (len(A) + 1, 1)
    assert extra[0] not in spectrum.external_values
    skewed = fqscan.LineSpectrum(spectrum.members, spectrum.externals + (extra,))
    monkeypatch.setattr(fqscan, "line_spectrum", lambda _: skewed)
    with pytest.raises(InvariantViolation, match="plane spectrum"):
        run_verify(A)


def test_run_verify_is_importable():
    from linarr.arrangement import load_arrangement

    A = load_arrangement(path("pencil4.arr"))
    checks = run_verify(A)
    assert checks[:3] == ["round-trip", "b2-range", "deletion-restriction"]


# -------------------------------------------------------------- exit codes


def test_usage_errors_exit_one():
    for argv in ([], ["bogus"], ["chi"], ["pair", path("pencil3.arr")]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1


def test_bad_target_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["free", path("pencil3.arr"), "--target", "member:x"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["free", path("pencil3.arr"), "--target", "nowhere"])
    assert exc.value.code == 1


@pytest.mark.parametrize("text", ["１", "١", "1_0", " 1", "1.0", "x", ""])
@pytest.mark.parametrize(
    "argv",
    [
        ["free", "pencil3.arr", "--target", "member:{}"],
        ["pair", "pencil3.arr", "{}"],
        ["order", "pencil3.arr", "--sub", "0", "{}"],
        ["verify", "pencil3.arr", "--corrupt-b2", "{}"],
    ],
)
def test_integer_arguments_take_ascii_digits_only(capsys, argv, text):
    argv = [path(a) if a.endswith(".arr") else a.format(text) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    (line,) = capsys.readouterr().err.splitlines()[-1:]
    assert f"not an integer: {text!r}" in line
    assert "_parse_target" not in line and "_integer" not in line


def test_overlong_integer_argument_error_is_short(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pair", path("pencil3.arr"), "9" * 5000])
    assert exc.value.code == 1
    (line,) = capsys.readouterr().err.splitlines()[-1:]
    assert "not an integer" in line and "(5000 chars)" in line and len(line) < 200


def test_ascii_integer_arguments_keep_their_sign(capsys):
    for args in (
        ("free", "--target", "member:{}", "1"),
        ("pair", "{}", "2"),
        ("order", "--sub", "{}", "1"),
        ("verify", "--corrupt-b2", "{}", "0"),
    ):
        command, *opts, value = args
        plain = run(capsys, command, path("pencil4.arr"), *(o.format(value) for o in opts))
        signed = run(capsys, command, path("pencil4.arr"), *(o.format("+" + value) for o in opts))
        assert plain == signed and plain[0] == 0
    rc, _, err = run(capsys, "pair", path("pencil3.arr"), "-1")
    assert rc == 1 and "out of range" in err


def test_missing_file_exits_one(capsys):
    rc, out, err = run(capsys, "chi", "/nonexistent/nope.arr")
    assert rc == 1
    assert err.startswith("error: cannot read")
    assert not out


def test_parse_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.arr"
    bad.write_text("field Q\nline 1 0\n")
    rc, _, err = run(capsys, "chi", str(bad))
    assert rc == 1
    assert err.startswith("error:")

    dup = tmp_path / "dup.arr"
    dup.write_text("field Q\nline 1 0 0\nline 2 0 0\n")
    rc, _, err = run(capsys, "chi", str(dup))
    assert rc == 1


@pytest.mark.parametrize(
    "command, name",
    [("chi", "x.arr"), ("exponents", "x.arr"), ("verify", "x.arr"), ("exponents", "x.marr")],
)
def test_non_utf8_input_is_a_parse_error(tmp_path, capsys, monkeypatch, command, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_bytes(b"field Q\nline 1 0 \xe9\n" if "m" in name else b"\xff\xfe")
    rc, out, err = run(capsys, command, name)
    assert (rc, out) == (1, [])
    assert err.startswith(f"error: {name}: not UTF-8 text (")
    assert len(err.splitlines()) == 1


def test_loaders_raise_parse_error_naming_the_path(tmp_path):
    bad = tmp_path / "bad.marr"
    bad.write_bytes(b"\x80field Q\n")
    for load in (load_arrangement, load_multiarrangement):
        with pytest.raises(ParseError) as exc:
            load(bad)
        assert exc.value.path == str(bad)
        assert str(exc.value).startswith(f"{bad}: not UTF-8 text")


def test_wrong_field_for_fq_exits_one(capsys):
    rc, _, err = run(capsys, "fq-count", path("squares_diagonals.arr"))
    assert rc == 1
    assert "prime field" in err


def test_bad_member_index_exits_one(capsys):
    rc, _, err = run(capsys, "pair", path("pencil3.arr"), "99")
    assert rc == 1
    assert "out of range" in err
    rc, _, err = run(capsys, "free", path("pencil3.arr"), "--target", "member:99")
    assert rc == 1


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "linarr.cli", "chi", path("squares_diagonals.arr")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "t^2 - 12 t + 35 = (t-5)(t-7)"

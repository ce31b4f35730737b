import json

import pytest

from apn_forge.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "test", "-f", "n=5", "-u", "x^3+Tr(x^9)")
    assert code == 0 and "APN=True" in out
    code, out, _ = run_cli(capsys, "test", "-f", "n=6", "-u", "x^9")
    assert code == 1 and "witness" in out
    code, _, err = run_cli(capsys, "test", "-f", "n=5", "-u", "x^+3")
    assert code == 2 and "error" in err


def test_verdict_json_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as res

    schema = json.loads(
        res.files("apn_forge").joinpath("schemas/verdict.schema.json").read_text()
    )
    for spec, n in (("x^3", 5), ("x^9", 6)):
        code, out, _ = run_cli(capsys, "test", "-f", f"n={n}", "-u", spec, "--format", "json")
        jsonschema.validate(json.loads(out), schema)


def test_form1_input(capsys):
    code, out, _ = run_cli(capsys, "test", "-f", "n=6", "--form1", "1,0,0,0,0,0;1,1,1,1,1,1")
    assert code == 0  # x^3 + Tr(x^9)


def test_lut_input(tmp_path, capsys, ctx4):
    from apn_forge.vbf import power_map, save_lut

    path = tmp_path / "cube.lut"
    save_lut(power_map(ctx4, 3), path)
    code, out, _ = run_cli(capsys, "test", "-f", "n=4", "--lut", str(path))
    assert code == 0


def test_builtin_dillon(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as res

    code, out, _ = run_cli(capsys, "spectral", "--builtin", "dillon6", "--bent", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["bent_count"] == 46 and payload["apn"]
    schema = json.loads(
        res.files("apn_forge").joinpath("schemas/profile.schema.json").read_text()
    )
    jsonschema.validate(payload, schema)


def test_builtin_aliases(capsys):
    code, out, _ = run_cli(capsys, "test", "--builtin", "t3:6:0", "--format", "json")
    assert code == 0
    code, out, _ = run_cli(capsys, "test", "--builtin", "tr9@a=a^3,n=7")
    assert code == 0
    code, out, _ = run_cli(capsys, "test", "--builtin", "gold3@n=5")
    assert code == 0


def test_spectral_sums(capsys):
    code, out, _ = run_cli(capsys, "spectral", "-f", "n=4", "-u", "x^3", "--sums", "--format", "json")
    payload = json.loads(out)
    assert set(payload["sums"].values()) == {512}


def test_spectral_bent_odd_dimension(capsys):
    code, _, err = run_cli(capsys, "spectral", "-f", "n=5", "-u", "x^3", "--bent")
    assert code == 2


def test_spectral_component_csv(capsys):
    code, out, _ = run_cli(capsys, "spectral", "-f", "n=4", "-u", "x^1", "--component", "1")
    assert code == 0
    assert "u,value" in out
    lines = [l for l in out.splitlines() if "," in l][1:]
    vals = [int(l.split(",")[1]) for l in lines]
    assert vals[1] == 16 and sum(v != 0 for v in vals) == 1
    code, out, _ = run_cli(
        capsys, "spectral", "-f", "n=4", "-u", "x^1", "--component", "1", "--format", "csv"
    )
    assert code == 0 and out.startswith("u,value\n0,0\n1,16")


def test_search_cli(tmp_path, capsys):
    out_file = tmp_path / "rec.jsonl"
    code, out, _ = run_cli(
        capsys, "search", "--shape", "x9-plus-L-binary", "--n", "5",
        "--record", "all", "--out", str(out_file), "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["bucket_count"] == 2
    assert len(out_file.read_text().splitlines()) == 32


def test_search_job_file(tmp_path, capsys):
    job_path = tmp_path / "job.json"
    job_path.write_text(json.dumps({"field": "n=4", "shape": "x9_plus_L_binary"}))
    code, out, _ = run_cli(capsys, "search", "--job", str(job_path), "--format", "json")
    assert code == 0


def assert_usage_error(capsys, *argv, match):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith("error:") and match in err


def test_search_rejects_seed_out_of_range(capsys):
    assert_usage_error(
        capsys, "search", "--shape", "form1-random", "--n", "6", "--samples", "10",
        "--seed", "-1", match="seed",
    )
    assert_usage_error(capsys, "search", "--n", "5", "--seed", str(1 << 64), match="seed")
    assert_usage_error(capsys, "reproduce", "conjecture", "--seed", "-1", match="seed")


def test_search_rejects_cursor_out_of_range(capsys):
    assert_usage_error(
        capsys, "search", "--shape", "form1-random", "--n", "6", "--samples", "10",
        "--seed", "3", "--cursor", "20", match="cursor",
    )
    assert_usage_error(capsys, "search", "--n", "5", "--cursor", "-3", match="cursor")
    code, out, _ = run_cli(capsys, "search", "--n", "4", "--cursor", "16")
    assert code == 0 and "candidates=0" in out  # a finished job's cursor is valid


def test_search_rejects_sample_count_below_one(capsys):
    assert_usage_error(
        capsys, "search", "--shape", "form1-random", "--n", "6", "--samples", "-5",
        match="sample_count",
    )


def test_search_rejects_sample_count_on_binary_shapes(capsys):
    # A sampled index would be read as a coefficient mask and wrap.
    for shape in ("x9-plus-L-binary", "form1-binary"):
        assert_usage_error(
            capsys, "search", "--shape", shape, "--n", "4", "--samples", "40",
            "--format", "json", match="sample_count",
        )


@pytest.mark.parametrize(
    "text, match",
    [
        ("0\n1\nzz\n3\n", ":3: 'zz' is not a hex element of GF(2^2)"),
        ("0\n1\n2\n", "must have 4 entries"),
        ("0\n1\n\n4\n3\n", ":4: '4' is not a hex element"),
        ("0\n1\n-1\n3\n", ":3: '-1' is not a hex element"),
        ("0\n1\n" + "f" * 40 + "\n3\n", ":3: 'fff"),
    ],
)
def test_malformed_lut_exits_2(tmp_path, capsys, text, match):
    path = tmp_path / "bad.lut"
    path.write_text(text)
    for cmd in ("test", "spectral"):
        assert_usage_error(capsys, cmd, "-f", "n=2", "--lut", str(path), match=match)


@pytest.mark.parametrize(
    "argv, match",
    [
        (("test", "-f", "n=4", "--form1", "zz;1"), "'zz' is not a comma-separated list"),
        (("test", "-f", "n=4", "--form1", "1,2;1"), "need 4 coefficients, got 2"),
        (("test", "-f", "n=4", "--form1", "1,0,0,0"), "is not L1;L2"),
        (("test", "-f", "n=4", "--form1", "100,0,0,0;1,0,0,0"), "not all elements of GF(2^4)"),
        (("test", "-f", "n=4", "--lut", "."), "Is a directory"),
        (("test", "--builtin", "gold3@n=x"), "'x' is not a number"),
        (("test", "--builtin", "tr9@a=zz"), "'zz' is not a number"),
        (("test", "--builtin", "tr9@a=a^x"), "'x' is not a number"),
        (("test", "--builtin", "tr9@a=0x100,n=4"), "a=0x100 is not an element of GF(2^4)"),
        (("test", "--builtin", "t3:6:9"), "no catalogued representative 9 at n=6"),
        (("test", "--builtin", "t3:x"), "is not t3:<n>:<index>"),
        (("spectral", "-f", "n=4", "-u", "x^3", "--component", "zz"), "'zz' is not an element"),
        (("spectral", "-f", "n=4", "-u", "x^3", "--component", "0x100"), "'0x100' is not an element"),
        (("test", "--builtin", "dillon6", "-u", "x^3"), "not -u and --builtin"),
        (("test", "-f", "n=4"), "not none"),
    ],
)
def test_malformed_function_exits_2(capsys, argv, match):
    # in process, a traceback would be an exception escaping main and failing the test
    assert_usage_error(capsys, *argv, match=match)


def test_search_job_file_unknown_key(tmp_path, capsys):
    job_path = tmp_path / "job.json"
    job_path.write_text(json.dumps({"field": "n=4", "shape": "x9_plus_L_binary", "bogus": 1}))
    assert_usage_error(capsys, "search", "--job", str(job_path), match="bogus")


def test_search_job_file_unknown_shape(tmp_path, capsys):
    job_path = tmp_path / "job.json"
    job_path.write_text(json.dumps({"field": "n=4", "shape": "nope"}))
    assert_usage_error(capsys, "search", "--job", str(job_path), match="shape")


def test_search_job_file_string_flags(tmp_path, capsys):
    job_path = tmp_path / "job.json"
    flags = {"use_parity": "false", "use_nonzero": "false", "use_beta": "false"}
    job_path.write_text(json.dumps({"field": "n=6", "shape": "x9_plus_L_binary", **flags}))
    assert_usage_error(capsys, "search", "--job", str(job_path), match="use_parity")


def test_field_spec_bad_value(capsys):
    assert_usage_error(capsys, "test", "-f", "n=abc", "-u", "x^3", match="n=abc")


def test_reproduce_cli(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "dims-scan", "--max-n", "10")
    assert code == 0
    assert "APN dims: 4 5 8" in out
    code, out, _ = run_cli(capsys, "reproduce", "dillon", "--format", "json")
    assert code == 0 and json.loads(out)["bent_components"] == 46


@pytest.mark.parametrize("max_n", ["3", "21"])
def test_reproduce_dims_scan_rejects_max_n_outside_4_to_20(capsys, max_n):
    # checked before the scan: 3 scanned nothing and said ok=True, 21 failed at n = 21
    assert_usage_error(capsys, "reproduce", "dims-scan", "--max-n", max_n, match=f"not {max_n}")


def test_spectral_bent_of_a_cubic(capsys):
    from apn_forge import spectral
    from apn_forge.field import mk_field
    from apn_forge.vbf import power_map

    code, out, _ = run_cli(capsys, "spectral", "-f", "n=6", "-u", "x^7", "--bent", "--format", "json")
    assert code == 0
    F = power_map(mk_field(6), 7)
    assert json.loads(out)["bent_count"] == sum(spectral.is_bent(F.component(lam)) for lam in range(1, 64)) == 27
    code, _, err = run_cli(capsys, "spectral", "-f", "n=6", "-u", "x^7", "--gamma")
    assert code == 2 and "degree <= 2" in err


@pytest.mark.parametrize("n", ["3", "11"])
def test_reproduce_table3_rejects_uncatalogued_n(capsys, n):
    # exit 1 would read as "ok=False"; the error names the catalogued n
    code, out, err = run_cli(capsys, "reproduce", "table3", "--n", n)
    assert code == 2 and not out and "Traceback" not in err
    assert err.startswith("error:") and "n = 4, 5, 6, 7, 8, 9, 10" in err


@pytest.mark.parametrize(
    "argv, match",
    [
        (["reproduce", "conjecture", "--samples", "0"], "--samples"),
        (["reproduce", "table3", "--n", "5", "--samples", "0"], "--samples"),
        (["search", "--n", "5", "--workers", "0"], "--workers"),
        (["search", "--n", "5", "--workers", "-3"], "--workers"),
        (["reproduce", "table3", "--n", "5", "--workers", "0"], "--workers"),
    ],
)
def test_counts_below_one_exit_2(capsys, argv, match):
    # 0 is a count that was given, not an unset option
    assert_usage_error(capsys, *argv, match=match)


def test_reproduce_conjecture_exit_code(capsys):
    # converse counterexamples at n=8 are findings, not failures
    code, out, _ = run_cli(capsys, "reproduce", "conjecture", "--samples", "3000", "--format", "json")
    report = json.loads(out)
    assert code == 0 and report["ok"]
    assert {e["kind"] for e in report["exceptions"]} == {"target_not_apn"}


def test_univariate_expression_features(capsys):
    # products, powers of alpha, relative trace, hex constants
    code, out, _ = run_cli(
        capsys, "test", "-f", "n=6",
        "-u", "x^3+a^-1*Tr(a^3*x^9)", "--format", "json",
    )
    assert code == 0 and json.loads(out)["is_apn"]
    code, out, _ = run_cli(capsys, "test", "-f", "n=6", "-u", "x^3+a^-1*Tr^3(a^3*x^9+a^6*x^18)")
    assert code == 0

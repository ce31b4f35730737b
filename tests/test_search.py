import ast
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from apn_forge import apn, equiv, linmap, search, spectral
from apn_forge.errors import JobTooLarge
from apn_forge.field import mk_field
from apn_forge.linmap import LinearizedPoly
from apn_forge.search import SearchJob
from apn_forge.vbf import Form1


def file_hash(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def test_enumerate_binary(ctx4):
    cands = list(search.enumerate_binary_L(ctx4))
    assert len(cands) == 16
    assert cands[0].is_zero()
    assert cands[3].coeffs == (1, 1, 0, 0)


def test_rng_values_deterministic():
    a = search.rng_values(7, [0, 1, 5], 4, 64)
    b = search.rng_values(7, [0, 1, 5], 4, 64)
    assert np.array_equal(a, b)
    c = search.rng_values(8, [0, 1, 5], 4, 64)
    assert not np.array_equal(a, c)
    # per-index stability: subsets agree with the full enumeration
    full = search.rng_values(7, range(10), 4, 64)
    assert np.array_equal(full[5], search.rng_values(7, [5], 4, 64)[0])


def test_job_roundtrip_and_validation():
    job = SearchJob(field="n=5", shape="x9_plus_L_binary", seed=3)
    assert SearchJob.from_json(job.to_json()) == job
    with pytest.raises(ValueError):
        SearchJob(field="n=5", shape="bogus")
    with pytest.raises(ValueError):
        SearchJob(field="n=5", shape="form1_random")
    with pytest.raises(JobTooLarge):
        SearchJob(field="n=6", shape="x9_plus_L_full").total_candidates()


def test_binary_scan_n5_classes(monkeypatch):
    calls = {"profile": 0, "gamma3_rank": 0}
    for name in calls:
        original = getattr(equiv, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(equiv, name, counted)
    s = search.run(SearchJob(field="n=5", shape="x9_plus_L_binary"))
    assert len(s.hits) == 15
    assert "0,0,0,0,0" in s.hits and "1,1,1,1,1" in s.hits
    # two inequivalence classes among the hits; buckets hold several members
    # of one class each, so they stay (honestly) unresolved
    assert s.bucket_count == 2
    # one profile per hit; the GF(3) escalation adds its rank to those profiles
    assert calls == {"profile": 15, "gamma3_rank": 15}


def test_binary_scan_n6_empty():
    s = search.run(SearchJob(field="n=6", shape="x9_plus_L_binary"))
    assert not s.hits
    assert s.verdicts.get("rejected:parity", 0) == 32


def test_filters_change_only_counts(ctx6):
    base = search.run(SearchJob(field="n=6", shape="x9_plus_L_binary"))
    noflt = search.run(
        SearchJob(
            field="n=6",
            shape="x9_plus_L_binary",
            use_parity=False,
            use_nonzero=False,
            use_beta=False,
        )
    )
    assert base.hits == noflt.hits
    assert set(noflt.verdicts) == {"fail"}
    b4 = search.run(SearchJob(field="n=4", shape="x9_plus_L_binary"))
    n4 = search.run(
        SearchJob(field="n=4", shape="x9_plus_L_binary", use_parity=False, use_nonzero=False)
    )
    assert b4.hits == n4.hits


def test_full_exhaustive_n4_single_class():
    # the full coefficient space at n=4 has more hits than are profiled;
    # bucket a sample of them instead
    s = search.run(SearchJob(field="n=4", shape="x9_plus_L_full"))
    assert len(s.hits) > 1000
    assert s.bucket_count is None
    from apn_forge import equiv
    from apn_forge.linmap import LinearizedPoly

    ctx = mk_field(4)
    sample = s.hits[:: max(1, len(s.hits) // 12)][:12]
    funcs = [
        Form1(LinearizedPoly.from_text(ctx, text), linmap.identity(ctx)).realize()
        for text in sample
    ]
    assert len(equiv.partition(funcs)) == 1


def test_determinism_across_runs_and_workers(tmp_path):
    job = SearchJob(field="n=5", shape="x9_plus_L_binary", record="all")
    p1, p2, p3 = (tmp_path / f"r{i}.jsonl" for i in range(3))
    search.run(job, out_path=p1, workers=1)
    search.run(job, out_path=p2, workers=1)
    search.run(job, out_path=p3, workers=3)
    assert file_hash(p1) == file_hash(p2) == file_hash(p3)
    # the bytes are pinned across versions too, not only across runs
    assert file_hash(p1) == "42f2da6be68253ed271f8d91b4d01e14b2df7543779179a24be9959330372508"


def test_record_format(tmp_path):
    job = SearchJob(field="n=4", shape="form1_binary", record="all")
    path = tmp_path / "records.jsonl"
    search.run(job, out_path=path)
    assert file_hash(path) == "765328f266ec709ba8d2c656892862accd0efdb3821c327ed9869b0371480941"
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 256
    recs = [json.loads(line) for line in lines]
    assert all(r["shape"] == "form1_binary" and r["n"] == 4 for r in recs)
    assert all("L1" in r and "L2" in r for r in recs)
    verdicts = {r["verdict"] for r in recs}
    assert "apn" in verdicts
    apn_recs = [r for r in recs if r["verdict"] == "apn"]
    assert all(r["profile"] is not None for r in apn_recs)


def test_even_n_filter_pins(tmp_path):
    # 3 | 6 and 3 | 12, so the parity, nonzero and beta filters all run
    job = SearchJob(field="n=6", shape="form1_random", sample_count=2000, seed=1, record="all")
    path = tmp_path / "records.jsonl"
    search.run(job, out_path=path)
    assert file_hash(path) == "9ca58e27f0f1741c3d73856b8df5fb8f7288a940eb9dea3eab8b7855e3d0234a"
    s = search.run(SearchJob(field="n=12", shape="form1_random", sample_count=3000, seed=1))
    assert s.verdicts == {"fail": 1554, "rejected:beta": 619, "rejected:nonzero": 827}
    assert not s.hits


def test_record_schema(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as res

    schema = json.loads(
        res.files("apn_forge").joinpath("schemas/record.schema.json").read_text()
    )
    job = SearchJob(field="n=4", shape="x9_plus_L_binary", record="all")
    path = tmp_path / "records.jsonl"
    search.run(job, out_path=path)
    for line in path.read_text().strip().split("\n"):
        jsonschema.validate(json.loads(line), schema)


def test_resume_cursor(tmp_path):
    search.run(
        SearchJob(field="n=4", shape="x9_plus_L_binary", record="all"),
        out_path=tmp_path / "full.jsonl",
    )
    tail = SearchJob(field="n=4", shape="x9_plus_L_binary", record="all", cursor=10)
    summary = search.run(tail, out_path=tmp_path / "tail.jsonl")
    assert summary.total == 6
    full_lines = set((tmp_path / "full.jsonl").read_text().splitlines())
    tail_lines = (tmp_path / "tail.jsonl").read_text().splitlines()
    assert len(tail_lines) == 6
    assert set(tail_lines) <= full_lines


_REFUTE_UNDER_O = """
import pytest
from apn_forge import apn, search
from apn_forge.errors import InternalCheckFailed
from apn_forge.field import mk_field
from apn_forge.vbf import power_map

assert not __debug__
verifies = apn.Witness.verifies
apn.Witness.verifies = lambda self, F: False
with pytest.raises(InternalCheckFailed, match="re-verification"):
    apn.is_apn_naive(power_map(mk_field(6), 9))
apn.Witness.verifies = verifies
apn.is_apn_naive = lambda F: apn.ApnVerdict(False, None, "patched")
with pytest.raises(InternalCheckFailed, match="re-verification"):
    search.run(search.SearchJob(field="n=4", shape="x9_plus_L_binary"))
with pytest.raises(InternalCheckFailed, match="disagree"):
    search.reproduce_table3(ns=[4])
"""


def test_reverification_survives_optimize():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _REFUTE_UNDER_O], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_no_assert_statements_in_src():
    # Checks that guard results must survive python -O.
    root = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src", "apn_forge")
    found = []
    for dirpath, _, names in os.walk(root):
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                tree = ast.parse(open(path).read(), path)
                found += [f"{path}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found


def test_sampled_mode_zero_hits_n9():
    s = search.run(SearchJob(field="n=9", shape="x9_plus_L_full", sample_count=2000, seed=0))
    assert not s.hits
    assert s.total == 2000


def test_conjecture_batch_matches_oracles(ctx4):
    masks = np.arange(256)
    l1s = [[(int(m) >> i) & 1 for i in range(4)] for m in masks & 0xF]
    l2s = [[(int(m) >> i) & 1 for i in range(4)] for m in masks >> 4]
    flags, bents, dims = search.conjecture_batch(ctx4, l1s, l2s)
    for m in (0, 1, 17, 33, 100, 255):
        form = Form1(linmap.from_mask(ctx4, m & 0xF), linmap.from_mask(ctx4, m >> 4))
        F = form.realize()
        assert bool(flags[m]) == apn.is_apn_naive(F).is_apn
        assert int(bents[m]) == spectral.bent_components(F)
        v_dims = spectral.spectral_profile(F).v_dims
        assert [int(d) for d in dims[m]] == [v_dims[lam] for lam in range(1, 16)]
    assert bool(np.all(flags == (bents == 10)))


def test_reproduce_conjecture_converse_counterexamples():
    rep = search.reproduce_conjecture(sample_counts={6: 3000, 8: 3000}, seed=0)
    assert rep["ok"]
    n8 = next(item for item in rep["items"] if item["n"] == 8)
    assert n8["apn_off_target"] == 0 and n8["target_not_apn"] == 16
    converse = [e for e in rep["exceptions"] if e["kind"] == "target_not_apn"]
    assert len(converse) == 16
    for e in converse:
        ctx = mk_field(e["n"])
        form = Form1(LinearizedPoly(ctx, e["L1"]), LinearizedPoly(ctx, e["L2"]))
        F = form.realize()
        assert not apn.is_apn_naive(F).is_apn
        gamma = spectral.spectral_profile(F).as_dict()["gamma"]
        assert gamma == e["dims"] and gamma["0"] == e["bent"] == 170
        assert max(int(d) for d in gamma) >= 4


def test_reproduce_dims_scan_small():
    rep = search.reproduce_dims_scan(max_n=10)
    assert rep["ok"] and rep["found_dims"] == [4, 5, 8]
    assert "APN dims: 4 5 8" in search.render_report(rep)


def test_reproduce_table3_single_n():
    rep = search.reproduce_table3(ns=[6])
    assert rep["ok"]
    item = rep["items"][0]
    assert item["buckets"] == 2 and item["all_apn"]


def test_reproduce_table3_n9_reduced():
    rep = search.reproduce_table3(ns=[9], n9_samples=3000)
    assert rep["ok"]
    assert rep["items"][0]["binary_hits"] == 0
    assert rep["items"][0]["random_hits"] == 0


def test_reproduce_dillon():
    rep = search.reproduce_dillon()
    assert rep["ok"] and rep["bent_components"] == 46


def test_reproduce_ep08():
    rep = search.reproduce_ep08()
    assert rep["ok"]
    equal_claims = [i for i in rep["items"] if i["relation"] == "equal"]
    assert all(i["profiles_match"] for i in equal_claims)
    differ_claims = [i for i in rep["items"] if i["relation"] == "differs"]
    assert len(differ_claims) == 2 and all(i["ok"] for i in differ_claims)

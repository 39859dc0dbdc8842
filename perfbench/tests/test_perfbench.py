"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import tracer as tr  # noqa: E402

# layers each workload must call; every other layer must see no call
TOUCHED = {
    "stream": {"io_formats", "frame_scoring", "state_update", "stabilization",
               "spatial", "geometry"},
    "cli": {"cli", "io_formats", "frame_scoring", "state_update",
            "stabilization", "spatial", "geometry", "metrics", "losses",
            "simulate"},
}


def span(sid, parent, t0, t1, layer="x", kind="call", nbytes=0):
    return [sid, parent, f"{layer}.f{sid}", layer, kind, t0, t1, None, nbytes]


# -- self-time arithmetic ---------------------------------------------------

def test_self_time_of_nested_spans():
    spans = [span(0, None, 0, 100, "a"),
             span(1, 0, 10, 40, "b"),
             span(2, 1, 20, 30, "c"),
             span(3, 0, 50, 70, "b")]
    assert tr.self_times(spans) == {0: 50, 1: 20, 2: 10, 3: 20}
    s = tr.summarize(spans, wall_ns=120, wall_start_ns=-10)
    assert {k: v["self_ns"] for k, v in s["layers"].items()} == \
        {"a": 50, "b": 40, "c": 10}
    assert s["layers"]["b"]["calls"] == 2
    assert s["funcs"]["b.f1"] == {"calls": 1, "total_ns": 30, "self_ns": 20}
    assert s["unaccounted_ns"] == 20


def test_self_time_counts_overlapping_children_once():
    spans = [span(0, None, 0, 100), span(1, 0, 10, 40), span(2, 0, 30, 60),
             span(3, 0, 90, 130)]  # the last child runs past its parent
    assert tr.self_times(spans)[0] == 100 - 50 - 10


def test_union_length():
    assert tr.union_length([]) == 0
    assert tr.union_length([(5, 7), (0, 2), (1, 3), (7, 9)]) == 7


def test_io_bytes_and_import_spans_are_attributed():
    spans = [span(0, None, 0, 10, "cli", "import"),
             span(1, 0, 2, 6, "deps", "import"),
             span(2, None, 10, 20, "io_formats", "call", nbytes=4000)]
    spans[2][tr.NAME] = "io_formats.read_pfm"
    s = tr.summarize(spans, wall_ns=20, wall_start_ns=0)
    assert s["layers"]["cli"]["import_ns"] == 10
    assert s["layers"]["cli"]["self_ns"] == 6
    assert s["layers"]["deps"]["self_ns"] == 4
    assert s["io"]["read_bytes"] == 4000 and s["io"]["read_ns"] == 10
    assert s["unaccounted_ns"] == 0


def test_tracer_nests_spans_and_rejects_out_of_order_ends():
    t = tr.Tracer(clock=iter(range(100)).__next__)
    outer = t.begin("a.f", "a", "call")
    inner = t.begin("b.g", "b", "call")
    t.end(inner)
    t.end(outer)
    assert [s[tr.PARENT] for s in t.spans] == [None, 0]
    with pytest.raises(RuntimeError):
        t.begin("a.f", "a", "call")
        t.end(t.spans[0])


# -- traced runs touch the layers they should -------------------------------

@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("bench")


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_traced_run_spans_every_touched_layer(workload, workdir):
    r = run.Runner(workload, 7, workdir / workload, time.monotonic() + 170, None)
    if workload == "stream":
        cfgs = [("stream", {"mode": "stream", "trace": True,
                            "manifest": r.manifest, "passes": 1}, r.tmp)]
    else:
        cfgs = [(job, {"mode": "job", "trace": True, "job": job, "argv": argv},
                 r.job_cwd(job)) for job, argv in r.manifest["jobs"].items()]
    called, imported = set(), set()
    for job, cfg, cwd in cfgs:
        res, _ = r.child(cfg, cwd)
        assert res.get("code", 0) == 0, job
        called |= {s[tr.LAYER] for s in res["spans"] if s[tr.KIND] == "call"}
        imported |= {s[tr.LAYER] for s in res["spans"] if s[tr.KIND] == "import"}
        if workload != "stream":
            assert {s[tr.JOB] for s in res["spans"] if s[tr.KIND] == "call"} == {job}
    assert called == TOUCHED[workload]
    assert set(spec.LAYERS) <= imported


# -- output checks ----------------------------------------------------------

def _csv(header, rows):
    return "\n".join([header] + [",".join("%.17g" % v for v in row)
                                 for row in rows]) + "\n"


def test_wrong_csv_value_counts_as_a_failure(workdir):
    reference = json.loads(run.REFERENCE.read_text())["cli"]
    r = run.Runner("cli", run.DEFAULT_SEED, workdir / "checks",
                   time.monotonic() + 60, reference)
    header = checks.CSV["eval-recon"][0]
    good = reference["eval-recon"]
    wrong = [[good[0][0] * (1 + 1e-6)] + good[0][1:]]
    out_of_range = [good[0][:2] + [1.5]]
    for rows in (good, wrong, out_of_range):
        r.record(r.check_job("eval-recon", 0, _csv(header, rows), None, {}, None))
    assert (r.attempted, r.failed) == (3, 2)
    assert any("reference" in p for p in r.problems)
    assert any("out of range" in p for p in r.problems)


def test_repeat_that_differs_is_a_failure(workdir):
    r = run.Runner("cli", 3, workdir / "repeat", time.monotonic() + 60, None)
    first = {}
    text = "abs_rel,delta_125\n0.5,90\n"
    assert r.check_job("eval-depth", 0, text, None, first, None) == []
    assert r.check_job("eval-depth", 0, text, None, first, None) == []
    assert r.check_job("eval-depth", 0, text.replace("90", "91"), None,
                       first, None) != []
    assert r.check_job("eval-depth", 1, text, None, first, None) != []


def test_uncaught_exception_is_a_failed_job(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    import child
    import streamstab.cli

    def boom(argv):
        raise RuntimeError("boom")
    monkeypatch.setattr(streamstab.cli, "main", boom)
    res = child.run_job({"argv": [], "job": "eval-depth"}, None)
    assert res["code"] == 1 and "RuntimeError: boom" in res["error"]


def test_reference_tolerance():
    assert checks.check_reference("j", [[1.0, 1e-17]], [[1.0 + 1e-10, 3e-17]]) == []
    assert checks.check_reference("j", [[1.0]], [[1.0 + 1e-8]]) != []


# -- inputs, spec and layout ------------------------------------------------

def test_generator_is_deterministic(tmp_path):
    import gen_inputs
    gen_inputs.generate("cli", 11, tmp_path / "a")
    gen_inputs.generate("cli", 11, tmp_path / "b")
    files = sorted(p.relative_to(tmp_path / "a")
                   for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert len(files) > 100
    for f in files:
        if f.name != "manifest.json":  # it names its own directory
            assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
    gen_inputs.generate("cli", 12, tmp_path / "c")
    assert (tmp_path / "a" / "traj_gt.txt").read_bytes() != \
        (tmp_path / "c" / "traj_gt.txt").read_bytes()


def test_benchmark_json_matches_spec():
    on_disk = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "stream", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Self-tests of the benchmark: oracles, failure accounting, tracer hygiene,
repeatable counts and a small run of each workload.

    python3 -m pytest bench/tests -q
"""

import json
import subprocess
import sys
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from repvar import affc_closed_form, brute_force_count, from_cayley_table  # noqa: E402

SHIPPED = ("z2", "z3", "z4", "z2xz2", "s3", "d4", "q8", "a4")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ROUND = workloads.round_requests  # the tests below replace it with smaller rounds


def _cheap(req) -> bool:
    return req.meta.get("order", 0) <= 8 and req.meta.get("genus", 0) <= (1 if req.kind == "count" else 30)


def _small_round(workload, seed=1):
    return [req for req in ROUND(workload, seed, 0) if _cheap(req)][:4]


def test_group_orders():
    for name, (_, _, order) in workloads.GROUP_SPECS.items():
        g = workloads.group(name)
        assert g.order == order
        assert sum(len(c) for c in g.classes) == order


@pytest.mark.parametrize("name", SHIPPED)
def test_hom_count_matches_brute_force(name):
    g = workloads.group(name)
    repvar_group = from_cayley_table(g.table)  # identity is index 0 in both: same labels
    for genus in range(3):
        for s in range(3):
            for combo in combinations_with_replacement(g.classes, s):
                assert workloads.hom_count(g, genus, combo) == brute_force_count(repvar_group, genus, combo)


@pytest.mark.parametrize("genus", range(1, 7))
def test_affc_terms_match_closed_form(genus):
    expected = {(a, b): int(c) for a, b, c in affc_closed_form(genus).to_json_terms()}
    assert workloads.affc_terms(genus) == expected


def test_verify_rows_counts_skips_against_budget(tmp_path):
    a4 = workloads.group("a4")  # class sizes 1, 3, 4, 4
    assert workloads.verify_rows(a4, 2, 2, 10**9) == (45, 0)
    # genus 2 costs 12^4 * prod |class|: only the identity class fits
    assert workloads.verify_rows(a4, 2, 2, 12**4) == (33, 12)
    path = tmp_path / "a4.json"
    path.write_text(json.dumps({"table": a4.table}))
    args = ["verify", "--backend", "finite", "--group", str(path), "--budget", str(12**4)]
    req = workloads.Request(args, None, "verify", (33, 12), 4, {})
    assert workloads.check(req, *run.run_inprocess(run.import_cli(), args)[:2]) is None


def test_rounds_are_seeded():
    for workload in workloads.WORKLOADS:
        one = workloads.round_requests(workload, 7, 0)
        again = workloads.round_requests(workload, 7, 0)
        assert [(r.args, r.group_file, r.expect) for r in one] == [(r.args, r.group_file, r.expect) for r in again]


def _corrupt(reqs):
    bad = reqs[0]
    bad.expect = bad.expect + 1 if bad.kind == "count" else {(0, 0): 1}
    return reqs


@pytest.mark.parametrize("mode", [run.timed_run, run.traced_run])
def test_wrong_answer_is_counted(mode, monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "round_requests", lambda w, s, r: _corrupt(_small_round("affc-genus")))
    result = mode("affc-genus", 1, 1, out_dir=tmp_path)
    assert result["correct"] is False
    assert result["failed"] >= 1
    log = (tmp_path / f"affc-genus-seed1-trace{int(mode is run.traced_run)}.requests.jsonl").read_text()
    assert "differ from the binomial expansion" in log


def test_check_rejects_short_verify():
    req = next(r for r in workloads.round_requests("finite-verify", 1, 0) if r.meta["group"] == "z2")
    passes, skips = req.expect
    rows = "".join(f"CHECK row {i} ... PASS\n" for i in range(passes - 1))
    assert workloads.check(req, 0, rows + f"SUMMARY: {passes - 1} passed, 0 failed, {skips} skipped\n")
    rows += "CHECK last ... PASS\n"
    assert workloads.check(req, 0, rows + f"SUMMARY: {passes} passed, 0 failed, {skips} skipped\n") is None


def _bindings():
    owners = [m for name, m in sys.modules.items() if name.split(".")[0] == "repvar"]
    owners += [v for m in list(owners) for v in vars(m).values() if isinstance(v, type)]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_tracer_restores_every_binding(tmp_path):
    cli = run.import_cli()
    before = _bindings()
    tracer = Tracer()
    assert not tracer.missing
    tracer.install()
    try:
        from repvar.poly import LaurentPoly

        assert cli.load_group is not before[(id(sys.modules["repvar.cli"]), "load_group")]
        assert LaurentPoly.__rmul__ is not before[(id(LaurentPoly), "__rmul__")]
        # an error raised inside traced code must not leave a span open
        assert run.run_inprocess(cli, ["classes", "--group", str(tmp_path / "absent.json")])[0] == 2
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer._stack == []


def test_counts_repeat_exactly(tmp_path):
    cli = run.import_cli()
    for workload in workloads.WORKLOADS:
        reqs = _small_round(workload)
        arg_lists = run.write_inputs(reqs, tmp_path / workload, 0)
        seen = []
        for _ in range(2):
            tracer = Tracer()
            with open(tmp_path / "log", "w") as log:
                failed, _, _, outputs = run.traced_pass(cli, tracer, reqs, arg_lists, 0, log)
            assert failed == 0
            seen.append(run._layer_counts(tracer, outputs))
        assert seen[0] == seen[1]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke(workload, monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "round_requests", lambda w, s, r: _small_round(w, s))
    plain = run.timed_run(workload, 1, 1, out_dir=tmp_path)
    assert plain["correct"] and plain["failed"] == 0
    assert list(plain["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in plain["metrics"].values())
    traced = run.traced_run(workload, 1, 1, out_dir=tmp_path)
    assert traced["correct"] and traced["failed"] == 0
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert (tmp_path / f"{workload}-seed1.spans.jsonl").stat().st_size > 0


def test_spec_matches_runner():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == run.PER_LAYER
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


def test_fails_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "affc-genus", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""

"""Checks of the serving benchmark in its seconds-long smoke mode.

Run with ``PYTHONPATH=src python -m pytest perfbench/check_smoke.py`` from
the repository root.  The file name keeps the default test collection of
the repository from picking these up: each smoke run starts servers and
takes several seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

SEED = 3
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: The layers the benchmark names; each must show up in some traced run.
NAMED_LAYERS = (
    "server.wire", "server.post", "codec.encode", "broker.submit",
    "broker.update", "cache.get", "cache.put", "cache.invalidate",
    "query.parse", "analysis.analyze", "mirror.pref_engine_for",
    "prefsql.build", "prefsql.explain", "prefsql.answer",
    "prefsql.certain_answers", "incremental.answer",
    "incremental.certain_answers", "incremental.insert", "incremental.delete",
)


def _smoke(workload: str, trace: int):
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", str(trace), "--smoke",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    return {
        (workload, trace): _smoke(workload, trace)
        for workload in bench.WORKLOADS
        for trace in (0, 1)
    }


def _declared(section: str):
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(runs, trace, section):
    declared = _declared(section)
    for workload in bench.WORKLOADS:
        _, result = runs[(workload, trace)]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, workload
        assert result["attempted"] >= 1
        emitted = {
            name: metric["unit"] for name, metric in result["metrics"].items()
        }
        assert emitted == declared, workload
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], (int, float))


def test_workloads_in_spec_match_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


def test_traced_run_emits_spans_for_every_named_layer(runs):
    seen = set()
    for workload in bench.WORKLOADS:
        record, _ = runs[(workload, 1)]
        layers = record["layers"]
        assert layers["ops_without_server_span"] == 0, workload
        seen |= {name for name, calls in layers["calls"].items() if calls}
    assert set(NAMED_LAYERS) <= seen, set(NAMED_LAYERS) - seen


def _payloads(plan):
    return [
        [op.payload for op in plan.warmup],
        [[op.payload for op in sequence] for sequence in plan.sequences],
    ]


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_operation_sequence_is_a_function_of_the_seed(workload):
    def plan(seed):
        dataset = workloads.make_dataset(workloads.SMOKE_PEOPLE)
        return _payloads(workloads.make_plan(workload, seed, dataset, 1, 2))

    assert plan(5) == plan(5)
    assert plan(5) != plan(6)


def test_cold_read_never_repeats_a_query_text():
    dataset = workloads.make_dataset(workloads.SMOKE_PEOPLE)
    plan = workloads.make_plan("cold-read", SEED, dataset, 1, 2)
    keys = [
        (dict(op.payload)["query"], dict(op.payload)["family"])
        for op in plan.warmup + [op for seq in plan.sequences for op in seq]
    ]
    assert len(keys) == len(set(keys))


def test_corrupted_reference_answer_counts_as_failed(tmp_path):
    from repro.service.broker import Request
    from repro.service.server import FAMILY_CODES, encode_result

    dataset = workloads.make_dataset(workloads.SMOKE_PEOPLE)
    csv_path = tmp_path / "emp.csv"
    workloads.write_csv(dataset, str(csv_path))
    plan = workloads.make_plan("hot-read", SEED, dataset, 1, 1)
    reference = harness.Reference(str(csv_path))
    # Served answers, produced here by a second independent broker.
    served = harness.Reference(str(csv_path)).broker
    records = []
    for i, op in enumerate(plan.hot):
        payload = dict(op.payload)
        result = served.submit(
            [Request(payload["query"], FAMILY_CODES[payload["family"]],
                     payload.get("variables"))]
        )[0]
        body = dict(encode_result(result), tag=f"t{i}")
        records.append(
            harness.Record(f"t{i}", op, 0.0, 0.001, 200, json.dumps(body).encode())
        )
    session = SimpleNamespace(
        timed=SimpleNamespace(records=records), warmup=[], traced=False
    )
    assert bench.verify(reference, session, "hot-read", SEED)["failed"] == 0

    victim = records[0].op
    key = (frozenset(), victim.payload)
    answer = list(reference.memo[key])
    if answer[0] == "closed":
        answer[2] = "false" if answer[2] != "false" else "true"
    else:
        answer[3] = answer[3] + (("corrupted",),)
    reference.memo[key] = tuple(answer)
    verdict = bench.verify(reference, session, "hot-read", SEED)
    corrupted = sum(1 for r in records if r.op == victim)
    assert verdict["failed"] == corrupted >= 1


def test_missing_program_sources_exit_nonzero(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for path in HERE.glob("*.py"):
        (bench_dir / path.name).write_text(path.read_text(encoding="utf-8"))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    completed = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "hot-read",
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_compare_flags_different_fingerprints(tmp_path, capsys):
    import compare

    def output(cpu_model, seconds):
        record = {
            "workload": "hot-read",
            "host": {"cpu_count": 2, "cpu_model": cpu_model},
            "config": {"clients": 1, "trace": 0},
            "data": {"rows": 10},
        }
        result = {"metrics": {"read_p50_ms": {"value": seconds, "unit": "ms"}}}
        return json.dumps(record) + "\n" + json.dumps(result) + "\n"

    base, same, other = (tmp_path / name for name in ("base", "same", "other"))
    base.write_text(output("cpu A", 1.0))
    same.write_text(output("cpu A", 2.0))
    other.write_text(output("cpu B", 2.0))
    assert compare.compare(str(base), str(same)) == 0
    assert "+100.0%" in capsys.readouterr().out
    assert compare.compare(str(base), str(other)) == 1
    assert "FINGERPRINT DIFFERS host.cpu_model" in capsys.readouterr().out

"""Determinism and smoke tests of the benchmark itself.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from expwalk import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# the per-layer table of the benchmark's definition
LAYER_TABLE = {
    "cli.run.self_s", "cli.emit_plotdata.s", "cli.emit_plotdata.rows",
    "expansion.expansion_certificate.calls", "expansion.expansion_certificate.s",
    "expansion.certificate.self_s",
    "expansion.optimizer.calls", "expansion.optimizer.nfev", "expansion.optimizer.s",
    "expansion.expanding_cone_membership.calls", "expansion.expanding_cone_membership.s",
    "measures.convolution_support.calls", "measures.convolution_support.s",
    "measures.sample_indices.calls", "measures.sample_indices.s",
    "linalg.wedge_power.calls", "linalg.wedge_power.s",
    "linalg.adjoint_rep.calls", "linalg.adjoint_rep.s",
    *(f"lattices.lll_reduce.d{d}.{k}" for d in (2, 3, 4) for k in ("calls", "s")),
    *(f"lattices.shortest_vector.d{d}.{k}" for d in (2, 3, 4) for k in ("calls", "s")),
    *(f"lattices.siegel_count.d{d}.{k}" for d in (2, 3) for k in ("calls", "s")),
    "lattices.siegel_count.cap_hits",
    "lattices.margulis_height.calls", "lattices.margulis_height.s",
    "lattices.walk_simulate.self_s", "lattices.contraction_fit.self_s",
    "lattices.recurrence_experiment.self_s",
    *(f"dioph.flow_trace.d{d}.{k}" for d in (2, 3) for k in ("calls", "points", "s", "self_s")),
    "dioph.brute_force_quality.calls", "dioph.brute_force_quality.box_points",
    "dioph.brute_force_quality.s",
    "fractal.coding_sample.s", "fractal.ifs_validate.s", "fractal.irreducibility_check.s",
    "kau.kau_factorize.calls", "kau.kau_factorize.s",
    "process.cpu_s", "trace.overhead_s",
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_bytes(workload, tmp_path):
    op = workloads.build(workload, 3, "smoke")[0]
    for name in ("a", "b"):
        assert cli.run(op.config(str(tmp_path / name))) == 0
    for suffix in ("data.csv", "summary.json"):
        assert (tmp_path / f"a.{suffix}").read_bytes() == (tmp_path / f"b.{suffix}").read_bytes()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_configs(workload):
    def configs(seed):
        return [(op.kind, op.params, op.seed) for op in workloads.build(workload, seed)]

    assert configs(5) == configs(5)
    assert configs(5) != configs(6)


def test_per_layer_names_match_definition():
    names = [name for name, _span, _key in run.PER_LAYER]
    assert len(names) == len(set(names))
    assert LAYER_TABLE <= set(names)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (n, run.unit_of(n)) for n in names
    ]


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_end_to_end(workload):
    lines, result = _bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert result["metrics"][name]["value"] > 0
        assert any(ln.startswith(f"  {name} = ") and ln.endswith(f" {unit}") for ln in lines)
    assert any(ln.startswith("fail_frac = ") for ln in lines)


def test_smoke_traced():
    lines, result = _bench("census", 1)
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert result["metrics"]["dioph.flow_trace.d3.points"]["value"] > 0


def test_no_program_no_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in BENCH.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "walk", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

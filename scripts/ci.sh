#!/usr/bin/env bash
# CI entrypoint: tier-1 test suite + example smoke runs.
#
# Usage: ./scripts/ci.sh [extra pytest args]
set -euo pipefail

cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 test suite =="
python -m pytest -x -q "$@"

echo "== example smoke: quickstart =="
python examples/quickstart.py

echo "== example smoke: schedule explorer (IR graph, lowerings, direct vs IR) =="
python examples/schedule_explorer.py

echo "== example smoke: DTensor dispatch vs universal matmul =="
python examples/dtensor_vs_universal.py

echo "== example smoke: MLP tensor parallelism =="
python examples/mlp_tensor_parallelism.py

echo "== example smoke: partition sweep (small batch) =="
python examples/partition_sweep.py 512

echo "== example smoke: partition sweep on the worker pool (2 jobs) =="
REPRO_SWEEP_JOBS=2 python examples/partition_sweep.py 512

echo "== example smoke: planner service =="
python examples/planner_service.py --family attention --system uniform \
  --devices 4 --sizes 256 --top-k 2

echo "== example smoke: planner warm start (plan store written, then read back) =="
store_dir="$(mktemp -d)"
trap 'rm -rf "$store_dir"' EXIT
for _ in 1 2; do
  python examples/planner_service.py --family attention --system uniform \
    --devices 4 --sizes 256 --store "$store_dir/plans.json"
done

echo "== example smoke: planner server (multi-process fleet) =="
python examples/planner_server.py --workers 2 --family attention \
  --sizes 256 --requests 8

echo "== example smoke: observe fleet (metrics + rollup + trace) =="
python examples/observe_fleet.py --workers 2 --requests 8

echo "== benchmark smoke: planner throughput (fast mode) =="
python benchmarks/bench_planner_throughput.py --fast

echo "== benchmark smoke: planner winners/ranking check (vs snapshot) =="
python benchmarks/bench_planner_throughput.py --check

echo "== benchmark smoke: serving throughput check (fleet vs snapshot) =="
python benchmarks/bench_serving_throughput.py --check

echo "== benchmark smoke: classical baselines (E9 orderings: UA-traditional vs SUMMA and the 1-D series) =="
python -m pytest -q --benchmark-disable benchmarks/bench_baselines_classic.py

echo "== benchmark smoke: paper figures and tables (Fig. 2-3 MLPs, Tables 1-2, replication ablation) =="
python -m pytest -q --benchmark-disable benchmarks/bench_fig2_mlp1_pvc.py \
  benchmarks/bench_fig2_mlp2_pvc.py benchmarks/bench_fig3_mlp1_h100.py \
  benchmarks/bench_fig3_mlp2_h100.py benchmarks/bench_table1_primitives.py \
  benchmarks/bench_table2_systems.py benchmarks/bench_ablation_replication.py

echo "== benchmark smoke: event-engine drift check =="
python benchmarks/bench_event_engine_smoke.py --check

echo "== benchmark smoke: sparse/MoE sweep drift check =="
python benchmarks/bench_sparse_sweep.py --check

echo "== benchmark smoke: telemetry overhead bar (off free, on < 5%) =="
python benchmarks/bench_telemetry_overhead.py --check

echo "== benchmark smoke: adaptive refresh replay (identical plans, no request-path colds) =="
python benchmarks/bench_adaptive_refresh.py --check

echo "== benchmark smoke: joint graph planner check (joint beats greedy, solvers exact) =="
python benchmarks/bench_graph_planner.py --check

echo "== benchmark smoke: cold_mix answers vs reference + scalar re-pricing of every winner =="
python benchmarks/e2e/run.py --workload cold_mix --seconds 3

echo "== benchmark smoke: cold_mix seed 1 (other pool shapes vs the pinned answers, re-priced on the scalar path) =="
python benchmarks/e2e/run.py --workload cold_mix --seconds 3 --seed 1

echo "== benchmark smoke: warm_inproc answers (every plan and plan_graph hit checked in-process) =="
python benchmarks/e2e/run.py --workload warm_inproc --seconds 3

echo "== benchmark smoke: wire_warm answers (every plan and plan_graph hit checked over the socket) =="
python benchmarks/e2e/run.py --workload wire_warm --seconds 3

echo "== benchmark smoke: matmul_direct answers (materialized vs NumPy, simulate-only vs reference, universal_matmul vs BatchEvaluator.simulate) =="
python benchmarks/e2e/run.py --workload matmul_direct --seconds 3

echo "== docs: markdown link check + executable-doc snippet smoke =="
python scripts/check_docs.py

echo "== docs: docstring coverage gate (planner + serve + obs + sim + dist + core + runtime + topology + collectives >= 90%) =="
python scripts/check_docstrings.py --threshold 90 src/repro/planner src/repro/serve src/repro/obs src/repro/sim src/repro/dist src/repro/core \
  src/repro/runtime src/repro/topology src/repro/collectives

echo "CI passed."

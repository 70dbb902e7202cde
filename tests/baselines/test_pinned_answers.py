"""Pin the comparators' answers bit-exactly.

Every baseline's ``simulate(...).summary()``, the DTensor series that
``repro.bench.sweep`` prices, and ``DTensor.redistribute_cost`` for every
pair of placements are compared against ``pinned_answers.json``.  Floats are
stored as ``float.hex`` strings, so a change in the last bit of any number
fails.  A configuration the model rejects is pinned as the error's type.

Regenerate the file (only when an answer is meant to change) from the
repository root with::

    PYTHONPATH=src python -m tests.baselines.test_pinned_answers --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable, Dict

import numpy as np
import pytest

from repro.baselines import (
    Cannon,
    CosmaLike,
    OneAndHalfD,
    OneDRing,
    Summa,
    TwoAndHalfD,
)
from repro.dtensor import DeviceMesh, DTensor, Partial, Replicate, Shard, simulate_dtensor_matmul
from repro.topology.machines import h100_system, pvc_system, uniform_system
from repro.util.validation import ReproError

PINNED_PATH = Path(__file__).with_name("pinned_answers.json")

MACHINES: Dict[str, Callable] = {
    "pvc_system(12)": lambda: pvc_system(12),
    "h100_system(8)": lambda: h100_system(8),
    "uniform_system(4)": lambda: uniform_system(4),
    "uniform_system(8)": lambda: uniform_system(8),
    "uniform_system(16)": lambda: uniform_system(16),
}

#: Square, tall-skinny, k-heavy and non-divisible ``(m, n, k)``.
SHAPES = {
    "square": (4096, 4096, 4096),
    "tall_skinny": (32768, 512, 1024),
    "k_heavy": (512, 512, 32768),
    "non_divisible": (1000, 3001, 777),
}

#: 40 MiB per device: rejects some shapes outright and moves the square
#: problem on 12 devices to a replicated (pk = 2) decomposition.
COSMA_BUDGET = 40 * 2**20

ALGORITHMS: Dict[str, Callable] = {
    "OneDRing()": lambda: OneDRing(),
    "OneDRing(overlap=False)": lambda: OneDRing(overlap=False),
    "Summa()": lambda: Summa(),
    "Summa(overlap=False)": lambda: Summa(overlap=False),
    "Cannon()": lambda: Cannon(),
    "OneAndHalfD(2)": lambda: OneAndHalfD(2),
    "TwoAndHalfD(2)": lambda: TwoAndHalfD(2),
    "CosmaLike()": lambda: CosmaLike(),
    f"CosmaLike(memory_budget_bytes={COSMA_BUDGET})":
        lambda: CosmaLike(memory_budget_bytes=COSMA_BUDGET),
}

#: The two sharded series of ``repro.bench.sweep.run_dtensor_series``.
DTENSOR_SHARDINGS = {"row": 0, "column": 1}

PLACEMENTS = {
    "Shard(0)": Shard(0),
    "Shard(1)": Shard(1),
    "Replicate()": Replicate(),
    "Partial()": Partial(),
}


def _encode(value):
    """JSON form of one answer field: floats as ``float.hex``, the rest as is."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    return value


def _guarded(compute: Callable[[], object]):
    try:
        return _encode(compute())
    except (ReproError, ValueError) as error:
        return {"error": type(error).__name__}


def _redistribute(machine, shape, src, dst):
    tensor = DTensor.symbolic(DeviceMesh(machine), shape, src, np.float32)
    cost = tensor.redistribute_cost(dst)
    return {"collective": cost.collective, "time_s": cost.time,
            "bytes_moved": cost.bytes_moved}


def compute_answers() -> Dict[str, object]:
    """Every pinned answer, keyed by a readable description of its inputs."""
    answers: Dict[str, object] = {}
    for machine_name, make_machine in MACHINES.items():
        machine = make_machine()
        mesh = DeviceMesh(machine)
        for shape_name, (m, n, k) in SHAPES.items():
            for algorithm_name, make_algorithm in ALGORITHMS.items():
                algorithm = make_algorithm()
                answers[f"baseline|{machine_name}|{shape_name}|{algorithm_name}"] = _guarded(
                    lambda: algorithm.simulate(m, n, k, machine).summary()
                )
            for sharding, dim in DTENSOR_SHARDINGS.items():
                answers[f"dtensor|{machine_name}|{shape_name}|{sharding}"] = _guarded(
                    lambda: simulate_dtensor_matmul(mesh, m, n, k, Shard(dim), Shard(dim))
                )
            for src_name, src in PLACEMENTS.items():
                for dst_name, dst in PLACEMENTS.items():
                    key = f"redistribute|{machine_name}|{shape_name}|{src_name}->{dst_name}"
                    answers[key] = _guarded(
                        lambda: _redistribute(machine, (m, k), src, dst)
                    )
    return answers


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED_PATH.read_text())


@pytest.fixture(scope="module")
def current():
    return compute_answers()


def test_the_same_inputs_are_pinned(pinned, current):
    assert sorted(current) == sorted(pinned)


@pytest.mark.parametrize("kind", ["baseline", "dtensor", "redistribute"])
def test_answers_are_bit_identical(pinned, current, kind):
    keys = [key for key in pinned if key.startswith(kind + "|")]
    assert keys
    changed = {key: (pinned[key], current.get(key))
               for key in keys if current.get(key) != pinned[key]}
    assert not changed, changed


def test_every_kind_of_answer_is_exercised(pinned):
    errors = [key for key, value in pinned.items()
              if isinstance(value, dict) and set(value) == {"error"}]
    # The memory-bounded COSMA rejects some problems; nothing else does
    # except the Shard -> Partial conversions DTensor cannot express.
    assert any("CosmaLike(memory_budget_bytes" in key for key in errors)
    assert all("CosmaLike(memory_budget_bytes" in key or "->Partial()" in key
               for key in errors)
    assert len(errors) < len(pinned) // 4


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.baselines.test_pinned_answers --write")
    PINNED_PATH.write_text(json.dumps(compute_answers(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINNED_PATH}")

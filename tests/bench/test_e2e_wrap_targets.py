"""Every attribute the end-to-end benchmark's ledger wraps still exists.

``benchmarks/e2e/layers.py`` times each layer by wrapping entry points by
name (``DirectExecutor.execute``, the ``BatchEvaluator`` methods, the module
attribute ``repro.sim.batch.generate_all_ops``, ...).  A refactor that drops
or renames one would crash the benchmark; this test makes it fail here.  The
module is loaded from its file and nothing is wrapped.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("e2e_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_target_exists():
    layers = _load_layers()
    targets = layers.wrap_targets(layers.Ledger())
    assert targets
    missing = [(getattr(owner, "__name__", owner), attribute)
               for owner, attribute, _layer, _observer in targets
               if attribute not in vars(owner)]
    assert not missing

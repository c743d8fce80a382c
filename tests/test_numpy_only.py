"""The library runs on its declared dependencies alone (numpy).

networkx is a test-only oracle (see ``test_network_paths.py``).  A fresh
interpreter with networkx blocked must still import the package, the
serving runtime, the CLI and every experiment module, serve a short trace,
run the brute-force, energy and replica searches on a small instance, and
fan a federation out over worker processes.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
sys.modules["networkx"] = None  # any `import networkx` now raises ImportError

import repro
import repro.serving
import repro.__main__
from repro.serving import ServingRuntime, WorkloadGenerator

models = ["clip-vit-b16", "encoder-vqa-small"]
trace = WorkloadGenerator(models, rate_rps=0.5, duration_s=10.0, seed=0).generate()
report = ServingRuntime(models).run(trace)
assert report.arrivals == len(trace) > 0
assert report.completed > 0
print("served", report.completed)

import importlib
import pkgutil

import repro.experiments

for module in pkgutil.iter_modules(repro.experiments.__path__):
    importlib.import_module("repro.experiments." + module.name)

from repro.core.placement.optimal import energy_optimal_placement, optimal_placement
from repro.core.placement.replicas import replica_optimal_placement
from repro.experiments.federation import STUDY_SEED, study_runtime
from repro.experiments.scaling import synthetic_instance

instance = synthetic_instance(3, 4, seed=1, n_requests=4)
args = (instance.problem, list(instance.requests), instance.network)
assert optimal_placement(*args, solver="brute") == optimal_placement(*args)
assert energy_optimal_placement(*args)[0] is not None
assert replica_optimal_placement(*args, max_copies=2)[1] > 0
federated = study_runtime(spillover=True, duration_s=40.0).run(STUDY_SEED, parallel=True)
assert federated.local_arrivals > 0
print("federated", federated.completed)
"""


def test_serves_with_networkx_blocked():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("served")

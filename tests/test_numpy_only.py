"""The library runs on its declared dependencies alone (numpy).

networkx is a test-only oracle (see ``test_network_paths.py``).  A fresh
interpreter with networkx blocked must still import the package, the
serving runtime and the CLI, and serve a short trace.
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
"""


def test_serves_with_networkx_blocked():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("served")

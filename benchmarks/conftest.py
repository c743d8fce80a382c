"""Benchmark harness configuration.

Each benchmark regenerates one paper artifact (table or figure), prints it
(visible with ``pytest benchmarks/ --benchmark-only -s`` and captured into
``bench_output.txt``), and asserts its headline qualitative claim so a
regression in the reproduction fails the bench run.
"""

import sys
from pathlib import Path

import pytest

# The loop-based scalar references (``objective_scalar``) live with the
# tests; the placement-scaling bench asserts bit identity against them.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark an expensive experiment with a single measured round."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once():
    return run_once

"""Synthetic benchmark substrate.

The paper evaluates on ten public benchmarks.  Offline, we substitute a
*latent-concept* generative model (:mod:`repro.datasets.latent`): every
class has a latent prototype; images/audio are fixed random linear renders
of (noisy) latents; texts are deterministic token sequences per class.  The
per-benchmark noise and class count (:mod:`repro.datasets.benchmarks`) are
tuned so zero-shot accuracies land near Table VIII, and — the actual claim
under test — split inference is bit-identical to centralized inference.
"""

from repro.datasets.latent import LatentConceptSpace
from repro.datasets.benchmarks import (
    BENCHMARKS,
    BenchmarkSpec,
    generate_benchmark,
    get_benchmark,
)
from repro.datasets.samples import (
    AlignmentSample,
    CaptioningSample,
    ClassificationSample,
    RetrievalSample,
    VQASample,
)

__all__ = [
    "LatentConceptSpace",
    "BENCHMARKS",
    "BenchmarkSpec",
    "generate_benchmark",
    "get_benchmark",
    "AlignmentSample",
    "CaptioningSample",
    "ClassificationSample",
    "RetrievalSample",
    "VQASample",
]

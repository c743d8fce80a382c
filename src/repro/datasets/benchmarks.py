"""The ten evaluation benchmarks as synthetic generators.

Each benchmark fixes a class count (matching the real dataset) and an
observation-noise level (tuned so the default models score near the paper's
Table VIII).  Generation is fully deterministic given (benchmark, split,
seed); see DESIGN.md for the substitution rationale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.core.tasks import Task
from repro.datasets.latent import LatentConceptSpace
from repro.datasets.samples import (
    AlignmentSample,
    CaptioningSample,
    ClassificationSample,
    RetrievalSample,
    VQASample,
)
from repro.utils.errors import ConfigurationError
from repro.utils.seeding import rng_for


@dataclass(frozen=True)
class BenchmarkSpec:
    """One benchmark: class count + noise + the task it evaluates."""

    name: str
    display_name: str
    task: Task
    num_classes: int
    noise: float
    pixel_noise: float = 0.0
    default_samples: int = 200

    def space(self) -> LatentConceptSpace:
        """The benchmark's concept space (classes are benchmark-specific)."""
        return LatentConceptSpace(num_classes=self.num_classes, seed=_SPACE_SEEDS[self.name])


#: Per-benchmark seeds keep class sets distinct across benchmarks.
_SPACE_SEEDS: Dict[str, int] = {}


def _register(specs: Sequence[BenchmarkSpec]) -> Dict[str, BenchmarkSpec]:
    table = {}
    for index, spec in enumerate(specs):
        table[spec.name] = spec
        _SPACE_SEEDS[spec.name] = 1000 + index
    return table


#: Class counts follow the real datasets; noise is the tuned difficulty.
BENCHMARKS: Dict[str, BenchmarkSpec] = _register(
    [
        BenchmarkSpec("food-101", "Food-101", Task.IMAGE_TEXT_RETRIEVAL, 101, noise=0.30, pixel_noise=0.25),
        BenchmarkSpec("cifar-10", "CIFAR-10", Task.IMAGE_TEXT_RETRIEVAL, 10, noise=0.70, pixel_noise=0.28),
        BenchmarkSpec("cifar-100", "CIFAR-100", Task.IMAGE_TEXT_RETRIEVAL, 100, noise=0.70, pixel_noise=0.28),
        BenchmarkSpec("country-211", "Country-211", Task.IMAGE_TEXT_RETRIEVAL, 211, noise=0.90, pixel_noise=0.42),
        BenchmarkSpec("flowers-102", "Flowers-102", Task.IMAGE_TEXT_RETRIEVAL, 102, noise=0.70, pixel_noise=0.26),
        BenchmarkSpec("coco-retrieval", "MS COCO", Task.ENCODER_VQA, 80, noise=0.40, pixel_noise=0.25),
        BenchmarkSpec("vqa-v2", "VQA-v2", Task.DECODER_VQA, 50, noise=0.25, pixel_noise=0.15),
        BenchmarkSpec("science-qa", "ScienceQA", Task.DECODER_VQA, 120, noise=0.40, pixel_noise=0.25),
        BenchmarkSpec("text-vqa", "TextVQA", Task.DECODER_VQA, 150, noise=0.50, pixel_noise=0.30),
        BenchmarkSpec("audioset-a", "AudioSet (As-A)", Task.CROSS_MODAL_ALIGNMENT, 60, noise=0.45, pixel_noise=0.25),
        BenchmarkSpec("food-101-cls", "Food-101 (classification)", Task.IMAGE_CLASSIFICATION, 101, noise=0.30, pixel_noise=0.25),
        # Extra benchmark (not in Table VIII) exercising the captioning path
        # the paper lists in Table II (NLP Connect ViT-GPT2).
        BenchmarkSpec("coco-captions", "MS COCO Captions", Task.IMAGE_CAPTIONING, 80, noise=0.25, pixel_noise=0.15),
    ]
)


def get_benchmark(name: str) -> BenchmarkSpec:
    try:
        return BENCHMARKS[name]
    except KeyError:
        raise ConfigurationError(f"unknown benchmark {name!r}") from None


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def generate_benchmark(name: str, samples: int = 0, split: str = "test", seed: int = 0) -> list:
    """Generate ``samples`` examples for a benchmark (task-typed samples)."""
    spec = get_benchmark(name)
    count = samples if samples > 0 else spec.default_samples
    space = spec.space()
    rng = rng_for("benchmark", name, split, seed)
    labels = rng.integers(0, spec.num_classes, size=count)

    pix = spec.pixel_noise
    if spec.task in (Task.IMAGE_TEXT_RETRIEVAL,):
        return [
            RetrievalSample(
                image=space.sample_image(int(c), spec.noise, rng, pixel_noise=pix), label=int(c)
            )
            for c in labels
        ]
    if spec.task is Task.IMAGE_CLASSIFICATION:
        return [
            ClassificationSample(
                image=space.sample_image(int(c), spec.noise, rng, pixel_noise=pix), label=int(c)
            )
            for c in labels
        ]
    if spec.task in (Task.ENCODER_VQA, Task.DECODER_VQA):
        return [
            VQASample(
                image=space.sample_image(int(c), spec.noise, rng, pixel_noise=pix),
                question_tokens=space.question_tokens(int(rng.integers(0, 1000))),
                answer=int(c),
            )
            for c in labels
        ]
    if spec.task is Task.CROSS_MODAL_ALIGNMENT:
        return [
            AlignmentSample(
                image=space.sample_image(int(c), spec.noise, rng, pixel_noise=pix),
                audio=space.sample_audio(int(c), spec.noise, rng, pixel_noise=pix),
                text_tokens=space.tokens_for_class(int(c)),
                label=int(c),
            )
            for c in labels
        ]
    if spec.task is Task.IMAGE_CAPTIONING:
        return [
            CaptioningSample(
                image=space.sample_image(int(c), spec.noise, rng, pixel_noise=pix),
                caption_tokens=space.tokens_for_class(int(c)),
                label=int(c),
            )
            for c in labels
        ]
    raise ConfigurationError(f"benchmark {name!r} has unsupported task {spec.task!r}")

"""Latent concept space and benchmark generation."""

import numpy as np
import pytest

from repro.datasets.benchmarks import (
    BENCHMARKS,
    generate_benchmark,
    get_benchmark,
    list_benchmarks,
)
from repro.datasets.latent import (
    AUDIO_DIM,
    IMAGE_SHAPE,
    TOKENS_PER_PROMPT,
    VOCAB_SIZE,
    LatentConceptSpace,
)
from repro.datasets.samples import AlignmentSample, RetrievalSample, VQASample
from repro.utils.errors import ConfigurationError
from repro.utils.seeding import rng_for

from conftest import latent_from_tokens


@pytest.fixture
def space():
    return LatentConceptSpace(num_classes=10, seed=3)


class TestLatentSpace:
    def test_prototypes_unit_norm(self, space):
        norms = np.linalg.norm(space.class_latents, axis=1)
        assert np.allclose(norms, 1.0)

    def test_prototypes_deterministic(self):
        a = LatentConceptSpace(num_classes=10, seed=3).class_latents
        b = LatentConceptSpace(num_classes=10, seed=3).class_latents
        assert np.array_equal(a, b)

    def test_seed_changes_prototypes(self):
        a = LatentConceptSpace(num_classes=10, seed=3).class_latents
        b = LatentConceptSpace(num_classes=10, seed=4).class_latents
        assert not np.allclose(a, b)

    def test_too_few_classes_rejected(self):
        with pytest.raises(ValueError):
            LatentConceptSpace(num_classes=1)

    def test_render_image_shape(self, space):
        image = space.render_image(space.class_latents[0])
        assert image.shape == IMAGE_SHAPE

    def test_render_is_shared_across_spaces(self):
        # Encoders pretrained on one space must transfer to another.
        a = LatentConceptSpace(num_classes=5, seed=1)
        b = LatentConceptSpace(num_classes=50, seed=9)
        assert np.array_equal(a.image_render, b.image_render)
        assert np.array_equal(a.audio_render, b.audio_render)

    def test_sample_image_noise_increases_distance(self, space):
        rng = rng_for("t")
        clean = space.render_image(space.class_latents[0])
        low = space.sample_image(0, 0.01, rng)
        high = space.sample_image(0, 2.0, rng)
        assert np.linalg.norm(high - clean) > np.linalg.norm(low - clean)

    def test_pixel_noise_applied(self, space):
        rng = rng_for("t")
        clean = space.sample_image(0, 0.0, rng_for("t"))
        noisy = space.sample_image(0, 0.0, rng, pixel_noise=1.0)
        assert not np.allclose(clean, noisy)

    def test_audio_shape(self, space):
        assert space.sample_audio(0, 0.1, rng_for("a")).shape == (AUDIO_DIM,)

    def test_class_index_validated(self, space):
        with pytest.raises(IndexError):
            space.noisy_latent(99, 0.1, rng_for("x"))


class TestTextCodebook:
    def test_tokens_shape_and_range(self, space):
        tokens = space.tokens_for_class(3)
        assert tokens.shape == (TOKENS_PER_PROMPT,)
        assert tokens.min() >= 0 and tokens.max() < VOCAB_SIZE

    def test_roundtrip_approximates_latent(self, space):
        latent = space.class_latents[2]
        decoded = latent_from_tokens(space.tokens_from_latent(latent))
        cos = decoded @ latent / (np.linalg.norm(decoded) * np.linalg.norm(latent))
        assert cos > 0.95  # quantization is mild

    def test_distinct_classes_distinct_tokens(self, space):
        token_sets = {tuple(space.tokens_for_class(c)) for c in range(10)}
        assert len(token_sets) == 10

    def test_prompt_set_shape(self, space):
        assert space.prompt_set().shape == (10, TOKENS_PER_PROMPT)

    def test_bad_latent_shape_rejected(self, space):
        with pytest.raises(ValueError):
            space.tokens_from_latent(np.zeros(3))


class TestBenchmarks:
    def test_all_ten_plus_registered(self):
        assert len(BENCHMARKS) >= 10

    def test_class_counts_match_real_datasets(self):
        assert get_benchmark("food-101").num_classes == 101
        assert get_benchmark("cifar-10").num_classes == 10
        assert get_benchmark("cifar-100").num_classes == 100
        assert get_benchmark("country-211").num_classes == 211
        assert get_benchmark("flowers-102").num_classes == 102

    def test_unknown_benchmark_raises(self):
        with pytest.raises(ConfigurationError):
            get_benchmark("imagenet-22k")

    def test_generation_deterministic(self):
        a = generate_benchmark("cifar-10", samples=5)
        b = generate_benchmark("cifar-10", samples=5)
        assert all(np.array_equal(x.image, y.image) for x, y in zip(a, b))
        assert [x.label for x in a] == [y.label for y in b]

    def test_seed_changes_data(self):
        a = generate_benchmark("cifar-10", samples=5, seed=0)
        b = generate_benchmark("cifar-10", samples=5, seed=1)
        assert not all(np.array_equal(x.image, y.image) for x, y in zip(a, b))

    def test_split_changes_data(self):
        a = generate_benchmark("cifar-10", samples=5, split="test")
        b = generate_benchmark("cifar-10", samples=5, split="train")
        assert not all(np.array_equal(x.image, y.image) for x, y in zip(a, b))

    def test_sample_types_per_task(self):
        assert isinstance(generate_benchmark("food-101", samples=1)[0], RetrievalSample)
        assert isinstance(generate_benchmark("vqa-v2", samples=1)[0], VQASample)
        assert isinstance(generate_benchmark("audioset-a", samples=1)[0], AlignmentSample)

    def test_labels_in_range(self):
        for sample in generate_benchmark("cifar-100", samples=20):
            assert 0 <= sample.label < 100

    def test_default_sample_count(self):
        spec = get_benchmark("cifar-10")
        assert len(generate_benchmark("cifar-10")) == spec.default_samples

    def test_every_benchmark_generates(self):
        for spec in list_benchmarks():
            samples = generate_benchmark(spec.name, samples=2)
            assert len(samples) == 2

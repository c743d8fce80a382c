"""The latent-concept generative model behind all synthetic benchmarks.

A :class:`LatentConceptSpace` defines:

- ``latent_dim``-dimensional unit-norm class prototypes;
- a fixed random linear *render* per modality (image, audio) mapping
  latents to observation space — the synthetic stand-in for "how the world
  depicts a concept";
- deterministic token sequences per class — the stand-in for class names
  and prompts.

Encoders are *pretrained* against the renders (not against any benchmark):
:mod:`repro.models.weights` fits each encoder's output projection to
recover latents from rendered observations, mirroring how CLIP-style
pretraining aligns modalities in a shared embedding space.  Benchmarks then
only choose class counts and observation noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from repro.utils.seeding import rng_for

#: Shared embedding-space dimensionality (CLIP's 512, scaled down).
LATENT_DIM = 16
#: Synthetic image shape (C, H, W).
IMAGE_SHAPE: Tuple[int, int, int] = (3, 24, 24)
#: Synthetic audio clip length (a pooled log-mel vector).
AUDIO_DIM = 256
#: Token vocabulary for synthetic text.
VOCAB_SIZE = 512
#: Tokens per class-name prompt (= latent_dim / 2: each token encodes a
#: quantized pair of latent dimensions).
TOKENS_PER_PROMPT = 8
#: Quantization bins per latent dimension in the text codebook.
_TEXT_BINS = 22


@dataclass(frozen=True)
class LatentConceptSpace:
    """A world of ``num_classes`` concepts with multi-modal renders."""

    num_classes: int
    latent_dim: int = LATENT_DIM
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.num_classes}")

    # ------------------------------------------------------------------
    # Prototypes and renders (deterministic in the space's seed)
    # ------------------------------------------------------------------
    @cached_property
    def class_latents(self) -> np.ndarray:
        """(num_classes, latent_dim) unit-norm prototypes."""
        rng = rng_for("class-latents", self.num_classes, base_seed=self.seed)
        latents = rng.normal(size=(self.num_classes, self.latent_dim))
        return latents / np.linalg.norm(latents, axis=1, keepdims=True)

    @cached_property
    def image_render(self) -> np.ndarray:
        """(image_pixels, latent_dim) render matrix, shared by ALL spaces.

        The render is seeded independently of the class count so encoders
        pretrained against it generalize across benchmarks — like a real
        vision encoder that never saw the benchmark's label set.
        """
        rng = rng_for("image-render", self.latent_dim)
        pixels = int(np.prod(IMAGE_SHAPE))
        return rng.normal(0.0, 1.0, size=(pixels, self.latent_dim)) / np.sqrt(self.latent_dim)

    @cached_property
    def audio_render(self) -> np.ndarray:
        """(AUDIO_DIM, latent_dim) render matrix for the audio modality."""
        rng = rng_for("audio-render", self.latent_dim)
        return rng.normal(0.0, 1.0, size=(AUDIO_DIM, self.latent_dim)) / np.sqrt(self.latent_dim)

    # ------------------------------------------------------------------
    # Observation synthesis
    # ------------------------------------------------------------------
    def render_image(self, latent: np.ndarray) -> np.ndarray:
        """Render a latent to an image of :data:`IMAGE_SHAPE`."""
        flat = self.image_render @ latent
        return flat.reshape(IMAGE_SHAPE)

    def render_audio(self, latent: np.ndarray) -> np.ndarray:
        """Render a latent to an audio clip vector."""
        return self.audio_render @ latent

    def sample_image(
        self,
        class_index: int,
        noise: float,
        rng: np.random.Generator,
        pixel_noise: float = 0.0,
    ) -> np.ndarray:
        """A noisy image of class ``class_index``.

        ``noise`` perturbs the latent (class confusability — hurts every
        model equally); ``pixel_noise`` perturbs the observation (sensor
        noise — larger encoders average it out better, which is what
        separates ViT-L from ViT-B in the accuracy tables).
        """
        latent = self.noisy_latent(class_index, noise, rng)
        image = self.render_image(latent)
        if pixel_noise > 0:
            image = image + rng.normal(0.0, pixel_noise, size=image.shape)
        return image

    def sample_audio(
        self,
        class_index: int,
        noise: float,
        rng: np.random.Generator,
        pixel_noise: float = 0.0,
    ) -> np.ndarray:
        """A noisy audio clip of class ``class_index``."""
        latent = self.noisy_latent(class_index, noise, rng)
        clip = self.render_audio(latent)
        if pixel_noise > 0:
            clip = clip + rng.normal(0.0, pixel_noise, size=clip.shape)
        return clip

    def noisy_latent(self, class_index: int, noise: float, rng: np.random.Generator) -> np.ndarray:
        """Class prototype plus isotropic latent noise."""
        self._check_class(class_index)
        perturbation = rng.normal(0.0, noise / np.sqrt(self.latent_dim), size=self.latent_dim)
        return self.class_latents[class_index] + perturbation

    # ------------------------------------------------------------------
    # Text
    # ------------------------------------------------------------------
    def tokens_from_latent(self, latent: np.ndarray) -> np.ndarray:
        """Deterministically 'verbalize' a latent as a token sequence.

        Pairs of latent dimensions are tanh-squashed and quantized into a
        2-D codebook (22 x 22 = 484 < VOCAB_SIZE codes).  Because the map
        is a fixed function of the latent — not of any benchmark — a text
        encoder pretrained on (tokens, latent) pairs generalizes across
        class sets, like a real language tower.
        """
        if latent.shape != (self.latent_dim,):
            raise ValueError(f"latent must have shape ({self.latent_dim},)")
        bins = _TEXT_BINS
        squashed = np.tanh(latent * 1.5)  # -> (-1, 1)
        quantized = np.clip(((squashed + 1.0) / 2.0 * bins).astype(int), 0, bins - 1)
        pairs = quantized.reshape(TOKENS_PER_PROMPT, 2)
        return pairs[:, 0] * bins + pairs[:, 1]

    def tokens_for_class(self, class_index: int) -> np.ndarray:
        """Token sequence for class ``class_index``'s name."""
        self._check_class(class_index)
        return self.tokens_from_latent(self.class_latents[class_index])

    def prompt_set(self) -> np.ndarray:
        """(num_classes, TOKENS_PER_PROMPT) — the zero-shot prompt set."""
        return np.stack([self.tokens_for_class(c) for c in range(self.num_classes)])

    def question_tokens(self, question_id: int) -> np.ndarray:
        """A deterministic question token sequence (for VQA)."""
        rng = rng_for("question-tokens", self.seed, question_id)
        return rng.integers(0, VOCAB_SIZE, size=TOKENS_PER_PROMPT)

    def _check_class(self, class_index: int) -> None:
        if not 0 <= class_index < self.num_classes:
            raise IndexError(f"class {class_index} out of range [0, {self.num_classes})")

"""Centralized vs. split execution paths for the executable models.

Both pipelines run the *same module objects* in the same order of data
dependencies.  The split pipeline additionally round-trips every inter-
module embedding through a byte serialization (``tobytes``/``frombuffer``)
— the emulated network hop.  Because IEEE-754 serialization is exact, the
two paths are **bit-identical**, which is the mechanism behind the paper's
Table VIII claim that S2M3 does not change accuracy (any residual deltas in
the paper are runtime variability, not architecture).

Batching design
---------------

Every task API comes in a per-sample form (``retrieve``, ``classify``, ...)
and a batched form (``retrieve_batch``, ``classify_batch``, ...).  The
batched forms drive ONE forward pass through the executable-model stack
with a leading batch axis and are **bit-identical** to looping the
per-sample forms — the encoders and heads keep each sample's GEMM shapes
intact (see :mod:`repro.models.layers`), so batching is purely a speedup
and cannot move an accuracy number.  This is the same amortization lever
the serving side uses: the paper's Sec. VI-C micro-batcher groups requests
that share a module and runs them as one batch (see
:mod:`repro.core.routing.batched`).

Batched embeddings ship as one ``(batch, latent)`` matrix: a single
serialization round-trip instead of ``batch`` of them, exactly how a real
split deployment would send a batched activation tensor.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.modules import ModuleKind
from repro.core.tasks import Task
from repro.models.heads import CosineSimilarityHead, InfoNCEHead, LinearClassifierHead
from repro.models.zoo import ExecutableModel
from repro.utils.errors import ConfigurationError


class _BasePipeline:
    """Shared task logic; subclasses define how embeddings travel."""

    def __init__(self, model: ExecutableModel) -> None:
        self.model = model

    # -- transport hook -------------------------------------------------
    def _ship(self, embedding: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- encoding -------------------------------------------------------
    def embed_image(self, image: np.ndarray) -> np.ndarray:
        encoder = self.model.encoder_of_kind(ModuleKind.VISION_ENCODER)
        return self._ship(encoder(image))

    def embed_images(self, images: np.ndarray) -> np.ndarray:
        """Embed a (batch, C, H, W) stack in ONE batched forward."""
        encoder = self.model.encoder_of_kind(ModuleKind.VISION_ENCODER)
        return self._ship(encoder.embed_batch(images))

    def embed_text(self, tokens: np.ndarray) -> np.ndarray:
        encoder = self.model.encoder_of_kind(ModuleKind.TEXT_ENCODER)
        return self._ship(encoder(tokens))

    def embed_texts(self, tokens_batch: np.ndarray) -> np.ndarray:
        """Embed (batch, tokens) sequences in ONE batched forward."""
        encoder = self.model.encoder_of_kind(ModuleKind.TEXT_ENCODER)
        return self._ship(encoder.embed_batch(tokens_batch))

    def embed_prompt_set(self, prompts: np.ndarray) -> np.ndarray:
        encoder = self.model.encoder_of_kind(ModuleKind.TEXT_ENCODER)
        return self._ship(encoder.encode_prompt_set(prompts))

    def embed_audios(self, clips: np.ndarray) -> np.ndarray:
        """Embed a (batch, AUDIO_DIM) stack in ONE batched forward."""
        encoder = self.model.encoder_of_kind(ModuleKind.AUDIO_ENCODER)
        return self._ship(encoder.embed_batch(clips))

    # -- task heads -----------------------------------------------------
    def retrieve(self, image: np.ndarray, prompts: np.ndarray) -> int:
        """Zero-shot image->text retrieval: winning prompt index."""
        head = self._retrieval_head()
        return head.rank(self.embed_image(image), self.embed_prompt_set(prompts))

    def retrieve_batch(
        self,
        images: np.ndarray,
        prompts: Optional[np.ndarray] = None,
        prompt_embeddings: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Batched retrieval: (batch,) winning prompt indices.

        Pass exactly ONE of ``prompts`` (raw token sequences, embedded once
        for the whole batch — the dominant saving: per-sample retrieval
        re-encodes every prompt) or ``prompt_embeddings`` (from
        :meth:`embed_prompt_set`, letting callers amortize the prompt
        forward across many batches).  Images run in one batched forward
        and ranking is per-row bit-exact.
        """
        head = self._retrieval_head()
        if (prompts is None) == (prompt_embeddings is None):
            raise ValueError("pass exactly one of prompts or prompt_embeddings")
        if prompt_embeddings is None:
            prompt_embeddings = self.embed_prompt_set(prompts)
        return head.rank_batch(self.embed_images(images), prompt_embeddings)

    def _retrieval_head(self) -> CosineSimilarityHead:
        head = self.model.head
        if not isinstance(head, CosineSimilarityHead):
            raise ConfigurationError(f"{self.model.spec.name!r} is not a retrieval model")
        return head

    def answer_vqa_decoder(
        self, image: np.ndarray, question_tokens: np.ndarray, answer_latents: np.ndarray
    ) -> int:
        """Decoder-only VQA: LM ranks the answer vocabulary."""
        if self.model.spec.task is not Task.DECODER_VQA:
            raise ConfigurationError(f"{self.model.spec.name!r} is not a decoder-VQA model")
        return self.model.head.answer(self.embed_image(image), question_tokens, answer_latents)

    def answer_vqa_decoder_batch(
        self, images: np.ndarray, question_tokens: np.ndarray, answer_latents: np.ndarray
    ) -> np.ndarray:
        """Batched decoder VQA: (batch,) answer indices, bit-exact per row."""
        if self.model.spec.task is not Task.DECODER_VQA:
            raise ConfigurationError(f"{self.model.spec.name!r} is not a decoder-VQA model")
        return self.model.head.answer_batch(
            self.embed_images(images), question_tokens, answer_latents
        )

    def answer_vqa_encoder(self, image: np.ndarray, question_tokens: np.ndarray) -> int:
        """Encoder-only VQA: classifier over concatenated embeddings."""
        if self.model.spec.task is not Task.ENCODER_VQA:
            raise ConfigurationError(f"{self.model.spec.name!r} is not an encoder-VQA model")
        head = self.model.head
        features = np.concatenate([self.embed_image(image), self.embed_text(question_tokens)])
        return head.predict(features)

    def answer_vqa_encoder_batch(
        self, images: np.ndarray, question_tokens: np.ndarray
    ) -> np.ndarray:
        """Batched encoder VQA: (batch,) predicted answers."""
        if self.model.spec.task is not Task.ENCODER_VQA:
            raise ConfigurationError(f"{self.model.spec.name!r} is not an encoder-VQA model")
        return self.model.head.predict_batch(self.vqa_features_batch(images, question_tokens))

    def vqa_features(self, image: np.ndarray, question_tokens: np.ndarray) -> np.ndarray:
        """Feature vector the encoder-VQA classifier consumes (for fitting)."""
        return np.concatenate([self.embed_image(image), self.embed_text(question_tokens)])

    def vqa_features_batch(self, images: np.ndarray, question_tokens: np.ndarray) -> np.ndarray:
        """(batch, 2*latent) features; row-exact vs :meth:`vqa_features`."""
        return np.concatenate(
            [self.embed_images(images), self.embed_texts(question_tokens)], axis=1
        )

    def classify(self, image: np.ndarray) -> int:
        """Image classification through the linear-probe head."""
        head = self._classifier_head()
        return head.predict(self.embed_image(image))

    def classify_batch(self, images: np.ndarray) -> np.ndarray:
        """Batched classification: (batch,) predicted classes."""
        head = self._classifier_head()
        return head.predict_batch(self.embed_images(images))

    def _classifier_head(self) -> LinearClassifierHead:
        if self.model.spec.task is not Task.IMAGE_CLASSIFICATION:
            raise ConfigurationError(f"{self.model.spec.name!r} is not a classification model")
        head = self.model.head
        if not isinstance(head, LinearClassifierHead):
            raise ConfigurationError("classification head must be a linear classifier")
        return head

    def alignment_accuracy(self, images: np.ndarray, audios: np.ndarray) -> float:
        """Cross-modal alignment: image<->audio matching over a batch."""
        head = self.alignment_head()
        image_embs = self.embed_images(images)
        audio_embs = self.embed_audios(audios)
        return head.match_accuracy(image_embs, audio_embs)

    def alignment_head(self) -> InfoNCEHead:
        head = self.model.head
        if not isinstance(head, InfoNCEHead):
            raise ConfigurationError(f"{self.model.spec.name!r} is not an alignment model")
        return head

    def caption(self, image: np.ndarray, answer_latents: np.ndarray, verbalize) -> np.ndarray:
        """Image captioning: LM emits the concept's token sequence."""
        if self.model.spec.task is not Task.IMAGE_CAPTIONING:
            raise ConfigurationError(f"{self.model.spec.name!r} is not a captioning model")
        empty_question = np.zeros(1, dtype=int)
        return self.model.head.generate(
            self.embed_image(image), empty_question, answer_latents, verbalize
        )

    def caption_batch(
        self, images: np.ndarray, answer_latents: np.ndarray, verbalize
    ) -> List[np.ndarray]:
        """Batched captioning: one emitted token sequence per image."""
        if self.model.spec.task is not Task.IMAGE_CAPTIONING:
            raise ConfigurationError(f"{self.model.spec.name!r} is not a captioning model")
        empty_questions = np.zeros((images.shape[0], 1), dtype=int)
        return self.model.head.generate_batch(
            self.embed_images(images), empty_questions, answer_latents, verbalize
        )


class CentralizedPipeline(_BasePipeline):
    """All modules on one host: embeddings stay in memory."""

    def _ship(self, embedding: np.ndarray) -> np.ndarray:
        return embedding


class SplitPipeline(_BasePipeline):
    """Modules on different hosts: embeddings serialize over 'the network'.

    Serialization round-trips through raw bytes, exactly as the paper's
    socket transport does.  fp64 -> bytes -> fp64 is lossless, hence
    bit-identical results.  A batched embedding ships as one contiguous
    ``(batch, latent)`` tensor — one hop for the whole micro-batch.
    """

    def _ship(self, embedding: np.ndarray) -> np.ndarray:
        payload = embedding.tobytes()
        restored = np.frombuffer(payload, dtype=embedding.dtype).reshape(embedding.shape)
        return restored.copy()

"""Task heads: cosine similarity, InfoNCE matching, linear classifiers.

The analytic heads (cosine, InfoNCE) are parameter-free, matching the
paper's Table V.  Classifier heads are benchmark-trained linear probes —
faithful to the paper, whose encoder-VQA classifier and Food-101 classifier
are likewise task-specific trained heads.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.models.weights import ridge_apply, ridge_apply_rows, ridge_fit


def cosine_scores(query: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Cosine similarity of one query against rows of ``candidates``."""
    q_norm = np.linalg.norm(query) + 1e-12
    c_norms = np.linalg.norm(candidates, axis=1) + 1e-12
    return candidates @ query / (c_norms * q_norm)


def cosine_scores_batch(queries: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """(batch, N) cosine scores; row ``i`` bit-matches ``cosine_scores(queries[i], ...)``.

    Two exactness details: each query keeps its own matvec-shaped GEMM slice
    (stacked 3-D matmul) instead of one ``candidates @ queries.T`` GEMM, and
    per-query norms use the same 1-D ``np.linalg.norm`` call as the
    sequential path (the ``axis=``-reduction variant differs in the last
    ulp from BLAS ``nrm2``).
    """
    q_norms = np.array([np.linalg.norm(query) for query in queries]) + 1e-12
    c_norms = np.linalg.norm(candidates, axis=1) + 1e-12
    dots = np.matmul(candidates, queries[:, :, None])[:, :, 0]  # (batch, N)
    return dots / (c_norms[None, :] * q_norms[:, None])


class CosineSimilarityHead:
    """Zero-shot retrieval head: rank candidate text embeddings for an image."""

    name = "cosine-similarity"

    def rank(self, image_embedding: np.ndarray, text_embeddings: np.ndarray) -> int:
        """Index of the best-matching candidate."""
        return int(np.argmax(cosine_scores(image_embedding, text_embeddings)))

    def rank_batch(self, image_embeddings: np.ndarray, text_embeddings: np.ndarray) -> np.ndarray:
        """(batch,) best-candidate indices; bit-exact vs per-sample :meth:`rank`."""
        return np.argmax(cosine_scores_batch(image_embeddings, text_embeddings), axis=1)

    def scores(self, image_embedding: np.ndarray, text_embeddings: np.ndarray) -> np.ndarray:
        return cosine_scores(image_embedding, text_embeddings)


class InfoNCEHead:
    """Cross-modal alignment head: symmetric InfoNCE over an embedding batch."""

    name = "infonce"

    def __init__(self, temperature: float = 0.07) -> None:
        if temperature <= 0:
            raise ValueError(f"temperature must be positive, got {temperature}")
        self.temperature = temperature

    def similarity_matrix(self, side_a: np.ndarray, side_b: np.ndarray) -> np.ndarray:
        """(N, N) cosine similarities between two embedding batches."""
        a = side_a / (np.linalg.norm(side_a, axis=1, keepdims=True) + 1e-12)
        b = side_b / (np.linalg.norm(side_b, axis=1, keepdims=True) + 1e-12)
        return a @ b.T

    def match_accuracy(self, side_a: np.ndarray, side_b: np.ndarray) -> float:
        """Fraction of rows whose diagonal entry wins — alignment accuracy."""
        sims = self.similarity_matrix(side_a, side_b)
        return float(np.mean(np.argmax(sims, axis=1) == np.arange(sims.shape[0])))

    def loss(self, side_a: np.ndarray, side_b: np.ndarray) -> float:
        """Symmetric InfoNCE loss (for completeness; lower = better aligned)."""
        sims = self.similarity_matrix(side_a, side_b) / self.temperature
        n = sims.shape[0]
        log_probs_ab = sims - _logsumexp(sims, axis=1)
        log_probs_ba = sims - _logsumexp(sims, axis=0)
        diag = np.arange(n)
        return float(-(log_probs_ab[diag, diag].mean() + log_probs_ba[diag, diag].mean()) / 2)


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return np.max(x, axis=axis, keepdims=True) + np.log(
        np.sum(np.exp(shifted), axis=axis, keepdims=True)
    )


class LinearClassifierHead:
    """A trained linear probe over (concatenated) embeddings."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.weights: Optional[np.ndarray] = None

    def fit(self, features: np.ndarray, labels: np.ndarray, num_classes: int) -> None:
        """Ridge-fit to one-hot labels (the linear-probe training)."""
        one_hot = np.eye(num_classes)[np.asarray(labels, dtype=int)]
        self.weights = ridge_fit(features, one_hot)

    def predict(self, features: np.ndarray) -> int:
        """Predicted class for one feature vector."""
        if self.weights is None:
            raise RuntimeError(f"classifier {self.name!r} is not fitted")
        return int(np.argmax(ridge_apply(self.weights, features)))

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        """(batch,) predicted classes; bit-exact vs per-row :meth:`predict`."""
        return np.argmax(self.logits_batch(features), axis=1)

    def logits(self, features: np.ndarray) -> np.ndarray:
        if self.weights is None:
            raise RuntimeError(f"classifier {self.name!r} is not fitted")
        return ridge_apply(self.weights, features)

    def logits_batch(self, features: np.ndarray) -> np.ndarray:
        """(batch, classes) logits with row-exact GEMM slicing."""
        if self.weights is None:
            raise RuntimeError(f"classifier {self.name!r} is not fitted")
        return ridge_apply_rows(self.weights, features)

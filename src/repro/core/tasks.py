"""Multi-modal task taxonomy (paper Sec. III-A and Table IV).

Each task defines which functional-module kinds its models require and
whether multiple encoders allow per-request parallel processing (the "||"
marker in Table IV).
"""

from __future__ import annotations

import enum
from typing import Tuple

from repro.core.modules import ModuleKind


class Task(enum.Enum):
    """The five evaluated multi-modal tasks."""

    IMAGE_TEXT_RETRIEVAL = "image_text_retrieval"
    ENCODER_VQA = "encoder_vqa"
    DECODER_VQA = "decoder_vqa"
    CROSS_MODAL_ALIGNMENT = "cross_modal_alignment"
    IMAGE_CLASSIFICATION = "image_classification"
    IMAGE_CAPTIONING = "image_captioning"

    @property
    def encoder_kinds(self) -> Tuple[ModuleKind, ...]:
        """Encoder module kinds required by this task (Table IV columns)."""
        return _TASK_ENCODERS[self]

    @property
    def head_kind(self) -> ModuleKind:
        """The task-head kind (LLM / distance / classifier)."""
        return _TASK_HEAD[self]


_TASK_ENCODERS = {
    Task.IMAGE_TEXT_RETRIEVAL: (ModuleKind.VISION_ENCODER, ModuleKind.TEXT_ENCODER),
    Task.ENCODER_VQA: (ModuleKind.VISION_ENCODER, ModuleKind.TEXT_ENCODER),
    Task.DECODER_VQA: (ModuleKind.VISION_ENCODER,),
    Task.CROSS_MODAL_ALIGNMENT: (
        ModuleKind.VISION_ENCODER,
        ModuleKind.TEXT_ENCODER,
        ModuleKind.AUDIO_ENCODER,
    ),
    Task.IMAGE_CLASSIFICATION: (ModuleKind.VISION_ENCODER,),
    Task.IMAGE_CAPTIONING: (ModuleKind.VISION_ENCODER,),
}

_TASK_HEAD = {
    Task.IMAGE_TEXT_RETRIEVAL: ModuleKind.DISTANCE,
    Task.ENCODER_VQA: ModuleKind.CLASSIFIER,
    Task.DECODER_VQA: ModuleKind.LANGUAGE_MODEL,
    Task.CROSS_MODAL_ALIGNMENT: ModuleKind.DISTANCE,
    Task.IMAGE_CLASSIFICATION: ModuleKind.CLASSIFIER,
    Task.IMAGE_CAPTIONING: ModuleKind.LANGUAGE_MODEL,
}

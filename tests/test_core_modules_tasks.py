"""Module kinds, module specs, and the task taxonomy."""

import pytest

from repro.core.modules import FAMILY_CNN, ModuleKind, ModuleSpec
from repro.core.tasks import Task


class TestModuleKind:
    def test_encoder_kinds(self):
        assert ModuleKind.VISION_ENCODER.is_encoder
        assert ModuleKind.TEXT_ENCODER.is_encoder
        assert ModuleKind.AUDIO_ENCODER.is_encoder

    def test_head_kinds(self):
        assert ModuleKind.LANGUAGE_MODEL.is_head
        assert ModuleKind.DISTANCE.is_head
        assert ModuleKind.CLASSIFIER.is_head

    def test_encoder_and_head_are_exclusive(self):
        for kind in ModuleKind:
            assert kind.is_encoder != kind.is_head

    def test_modalities(self):
        assert ModuleKind.VISION_ENCODER.modality == "image"
        assert ModuleKind.TEXT_ENCODER.modality == "text"
        assert ModuleKind.AUDIO_ENCODER.modality == "audio"
        assert ModuleKind.DISTANCE.modality is None


class TestModuleSpec:
    def test_memory_scales_with_precision(self):
        spec = ModuleSpec("m", ModuleKind.VISION_ENCODER, 1000, 1.0, bytes_per_param=4)
        assert spec.memory_bytes == 4000

    def test_negative_params_rejected(self):
        with pytest.raises(ValueError):
            ModuleSpec("m", ModuleKind.VISION_ENCODER, -1, 1.0)

    def test_negative_work_rejected(self):
        with pytest.raises(ValueError):
            ModuleSpec("m", ModuleKind.VISION_ENCODER, 1, -1.0)

    def test_family_flag(self):
        spec = ModuleSpec("m", ModuleKind.VISION_ENCODER, 1, 1.0, family=FAMILY_CNN)
        assert spec.family == FAMILY_CNN

    def test_frozen(self):
        spec = ModuleSpec("m", ModuleKind.VISION_ENCODER, 1, 1.0)
        with pytest.raises(AttributeError):
            spec.params = 2


class TestTasks:
    def test_table4_parallelizable_tasks(self):
        # Table IV's '||' rows: two or more encoders run in parallel.
        for task in (Task.IMAGE_TEXT_RETRIEVAL, Task.ENCODER_VQA, Task.CROSS_MODAL_ALIGNMENT):
            assert len(task.encoder_kinds) >= 2

    def test_table4_non_parallelizable_tasks(self):
        for task in (Task.DECODER_VQA, Task.IMAGE_CLASSIFICATION, Task.IMAGE_CAPTIONING):
            assert len(task.encoder_kinds) == 1

    def test_alignment_has_three_encoders(self):
        assert len(Task.CROSS_MODAL_ALIGNMENT.encoder_kinds) == 3

    def test_head_kinds(self):
        assert Task.IMAGE_TEXT_RETRIEVAL.head_kind is ModuleKind.DISTANCE
        assert Task.DECODER_VQA.head_kind is ModuleKind.LANGUAGE_MODEL
        assert Task.ENCODER_VQA.head_kind is ModuleKind.CLASSIFIER
        assert Task.IMAGE_CAPTIONING.head_kind is ModuleKind.LANGUAGE_MODEL

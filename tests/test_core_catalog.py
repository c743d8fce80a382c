"""The module/model catalogs mirror the paper's Tables II, IV and V."""

import pytest

from repro.core.catalog import (
    MODULE_CATALOG,
    get_model,
    get_module,
    list_models,
    list_modules,
    models_for_task,
)
from repro.core.modules import ModuleKind
from repro.core.tasks import Task
from repro.utils.errors import ConfigurationError
from repro.utils.units import million


class TestModuleCatalog:
    def test_lookup_known(self):
        module = get_module("clip-vit-b16-vision")
        assert module.params == million(86)
        assert module.kind is ModuleKind.VISION_ENCODER

    def test_lookup_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            get_module("resnet-9000")

    def test_table5_vision_encoder_sizes(self):
        expected = {
            "clip-rn50-vision": 38,
            "clip-rn101-vision": 56,
            "clip-rn50x4-vision": 87,
            "clip-rn50x16-vision": 168,
            "clip-rn50x64-vision": 421,
            "clip-vit-b32-vision": 88,
            "clip-vit-b16-vision": 86,
            "clip-vit-l14-vision": 304,
            "clip-vit-l14-336-vision": 304,
            "openclip-vit-h14-vision": 630,
        }
        for name, millions in expected.items():
            assert get_module(name).params == million(millions), name

    def test_table5_llm_sizes(self):
        assert get_module("vicuna-7b").params == million(7000)
        assert get_module("phi-3-mini").params == million(3800)
        assert get_module("tinyllama-1.1b").params == million(1100)

    def test_analytic_heads_are_parameter_free(self):
        assert get_module("cosine-similarity").params == 0
        assert get_module("infonce").params == 0

    def test_tiny_classifier_sizes_match_table10_deltas(self):
        assert get_module("vqa-classifier").params == 1_000
        assert get_module("food101-classifier").params == 52_000

    def test_all_modules_have_positive_work_or_are_heads(self):
        for module in list_modules():
            assert module.work > 0

    def test_memory_is_fp16_bytes(self):
        module = get_module("clip-vit-b16-vision")
        assert module.memory_bytes == module.params * 2


class TestModelCatalog:
    def test_nine_clip_retrieval_variants(self):
        retrieval = models_for_task(Task.IMAGE_TEXT_RETRIEVAL)
        assert len(retrieval) == 9

    def test_clip_vit_b16_total_params_match_table6(self):
        model = get_model("clip-vit-b16")
        total = sum(get_module(name).params for name in model.module_names)
        assert total == million(124)

    def test_clip_rn50_split_saving_is_50_percent(self):
        model = get_model("clip-rn50")
        params = [get_module(name).params for name in model.module_names]
        assert max(params) / sum(params) == pytest.approx(0.5, abs=0.01)

    def test_decoder_vqa_models_share_the_vision_tower(self):
        llava = get_model("llava-v1.5-7b")
        flint = get_model("flint-v0.5-1b")
        assert llava.encoders == flint.encoders  # both ViT-L/14@336

    def test_vqa_small_variants_use_vitb16(self):
        assert get_model("llava-v1.5-7b-s").encoders == ("clip-vit-b16-vision",)
        assert get_model("flint-v0.5-1b-s").encoders == ("clip-vit-b16-vision",)

    def test_imagebind_has_three_encoders(self):
        assert len(get_model("imagebind").encoders) == 3

    def test_alignment_lite_matches_table10_composition(self):
        model = get_model("alignment-vitb16")
        assert set(model.encoders) == {
            "clip-vit-b16-vision",
            "clip-trf-38m",
            "imagebind-audio-vitb",
        }

    def test_work_scale_prompt_set_for_retrieval(self):
        model = get_model("clip-vit-b16")
        assert model.scale_for("clip-trf-38m") == 100.0
        assert model.scale_for("clip-vit-b16-vision") == 1.0

    def test_work_scale_question_for_vqa(self):
        model = get_model("encoder-vqa-small")
        assert model.scale_for("clip-trf-38m") == 2.0

    def test_payload_bytes_defaults_and_overrides(self):
        retrieval = get_model("clip-vit-b16")
        assert retrieval.payload_bytes("text") == 20_000  # prompt set
        assert retrieval.payload_bytes("image") == 150_000  # default

    def test_payload_unknown_modality_raises(self):
        with pytest.raises(ConfigurationError):
            get_model("clip-vit-b16").payload_bytes("smell")

    def test_every_model_references_known_modules(self):
        for model in list_models():
            for name in model.module_names:
                assert name in MODULE_CATALOG, f"{model.name} -> {name}"

    def test_every_model_encoder_kinds_match_task(self):
        for model in list_models():
            encoder_kinds = tuple(get_module(name).kind for name in model.encoders)
            assert set(encoder_kinds) <= set(model.task.encoder_kinds), model.name

    def test_every_model_head_kind_matches_task(self):
        for model in list_models():
            assert get_module(model.head).kind is model.task.head_kind, model.name

    def test_unknown_model_raises(self):
        with pytest.raises(ConfigurationError):
            get_model("gpt-17")

    def test_catalog_is_nonempty_and_unique(self):
        names = [model.name for model in list_models()]
        assert len(names) == len(set(names))
        assert len(names) >= 14  # the paper's "14 models"

"""Split architecture (Sec. IV-A) and sharing (Sec. IV-B) cost accounting."""

import pytest

from repro.core.catalog import get_model, list_models
from repro.core.sharing import build_sharing_plan, sharing_savings
from repro.core.splitter import split_model
from repro.utils.units import million


class TestSplitModel:
    def test_split_by_name_or_spec(self):
        by_name = split_model("clip-vit-b16")
        by_spec = split_model(get_model("clip-vit-b16"))
        assert by_name.model.name == by_spec.model.name

    def test_module_set_is_encoders_plus_head(self):
        split = split_model("clip-vit-b16")
        assert len(split.modules) == 3
        assert split.head.name == "cosine-similarity"

    def test_total_vs_max_params(self):
        split = split_model("clip-vit-b16")
        assert split.total_params == million(124)
        assert split.max_module_params == million(86)

    def test_rn50_headline_saving(self):
        # The paper's "up to 50%" single-task claim comes from CLIP RN50.
        split = split_model("clip-rn50")
        assert split.saving_fraction == pytest.approx(0.50, abs=0.01)

    def test_saving_fraction_matches_table6_for_all_models(self):
        # Every split saves something (the head or the smaller encoder).
        for model in list_models():
            split = split_model(model)
            assert 0.0 < split.saving_fraction < 1.0, model.name

    def test_encoder_count(self):
        assert len(split_model("imagebind").encoders) == 3
        assert len(split_model("llava-v1.5-7b").encoders) == 1


class TestSharingPlan:
    TASKS = [
        "clip-vit-b16",
        "encoder-vqa-small",
        "alignment-vitb16",
        "image-classification-vitb16",
    ]

    def test_table10_incremental_params(self):
        plan = build_sharing_plan(self.TASKS)
        added = [step.added_params for step in plan.steps]
        assert added[0] == million(124)  # vision + text (+0 head)
        assert added[1] == 1_000  # only the VQA classifier
        assert added[2] == million(85)  # only the audio tower
        assert added[3] == 52_000  # only the Food-101 probe

    def test_table10_cumulative_totals(self):
        plan = build_sharing_plan(self.TASKS)
        assert plan.steps[-1].cumulative_shared_params == pytest.approx(million(209), rel=0.01)
        assert plan.steps[-1].cumulative_unshared_params == pytest.approx(million(543), rel=0.01)

    def test_headline_62_percent_saving(self):
        saving = sharing_savings(self.TASKS)
        assert saving == pytest.approx(0.615, abs=0.01)

    def test_reuse_counts(self):
        # A module's first step adds it; every later step that needs it reuses it.
        plan = build_sharing_plan(self.TASKS)

        def users(name):
            return sum(
                1
                for step in plan.steps
                if name in {m.name for m in step.new_modules + step.reused_modules}
            )

        assert users("clip-vit-b16-vision") == 4
        assert users("imagebind-audio-vitb") == 1

    def test_single_model_saves_nothing(self):
        assert sharing_savings(["clip-vit-b16"]) == 0.0

    def test_duplicate_models_share_fully(self):
        plan = build_sharing_plan(["clip-vit-b16", "clip-vit-b16"])
        assert plan.shared_params == split_model("clip-vit-b16").total_params
        assert plan.saving_fraction == pytest.approx(0.5)

    def test_distinct_modules_first_use_order(self):
        plan = build_sharing_plan(["clip-vit-b16", "encoder-vqa-small"])
        names = [module.name for module in plan.distinct_modules]
        assert names == [
            "clip-vit-b16-vision",
            "clip-trf-38m",
            "cosine-similarity",
            "vqa-classifier",
        ]

    def test_plan_accepts_specs_and_names(self):
        plan = build_sharing_plan([get_model("clip-vit-b16"), "encoder-vqa-small"])
        assert len(plan.steps) == 2

    def test_llava_variants_share_vision_and_llm(self):
        plan = build_sharing_plan(["llava-v1.5-7b", "llava-next-7b"])
        # Identical composition -> the second model adds nothing.
        assert plan.steps[1].added_params == 0

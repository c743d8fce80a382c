"""The executable zoo, encoders' semantic quality, and the split==central claim."""

import numpy as np
import pytest

from repro.core.modules import ModuleKind
from repro.datasets.latent import LatentConceptSpace
from repro.models.heads import CosineSimilarityHead, InfoNCEHead, LinearClassifierHead
from repro.models.lm import TinyAnswerLM
from repro.models.pipeline import CentralizedPipeline, SplitPipeline
from repro.models.zoo import ModelZoo
from repro.utils.errors import ConfigurationError
from repro.utils.seeding import rng_for


@pytest.fixture(scope="module")
def space():
    return LatentConceptSpace(num_classes=12, seed=77)


class TestZooCaching:
    def test_shared_module_is_the_same_object(self, zoo):
        a = zoo.model("clip-vit-b16")
        b = zoo.model("encoder-vqa-small")
        assert a.modules["clip-vit-b16-vision"] is b.modules["clip-vit-b16-vision"]

    def test_distinct_modules_distinct_objects(self, zoo):
        a = zoo.module("clip-vit-b16-vision")
        b = zoo.module("clip-vit-b32-vision")
        assert a is not b

    def test_weights_deterministic_across_zoos(self, space):
        rng = rng_for("det-check")
        latent = space.class_latents[0]
        image = space.render_image(latent)
        a = ModelZoo().module("clip-rn50-vision")(image)
        b = ModelZoo().module("clip-rn50-vision")(image)
        assert np.array_equal(a, b)

    def test_encoder_of_kind(self, zoo):
        model = zoo.model("imagebind")
        assert zoo.module("openclip-vit-h14-vision") is model.encoder_of_kind(
            ModuleKind.VISION_ENCODER
        )
        with pytest.raises(ConfigurationError):
            zoo.model("clip-vit-b16").encoder_of_kind(ModuleKind.AUDIO_ENCODER)


class TestEncoderSemantics:
    def test_vision_encoder_recovers_latents(self, zoo, space):
        encoder = zoo.module("clip-vit-b16-vision")
        cosines = []
        rng = rng_for("probe")
        for _ in range(10):
            latent = rng.normal(size=16)
            latent /= np.linalg.norm(latent)
            estimate = encoder(space.render_image(latent))
            cosines.append(estimate @ latent / (np.linalg.norm(estimate) * 1.0))
        assert np.mean(cosines) > 0.8

    def test_text_encoder_recovers_latents(self, zoo, space):
        encoder = zoo.module("clip-trf-38m")
        cosines = []
        rng = rng_for("probe-t")
        for _ in range(10):
            latent = rng.normal(size=16)
            latent /= np.linalg.norm(latent)
            estimate = encoder(space.tokens_from_latent(latent))
            cosines.append(estimate @ latent / (np.linalg.norm(estimate) + 1e-12))
        assert np.mean(cosines) > 0.9

    def test_audio_encoder_recovers_latents(self, zoo, space):
        encoder = zoo.module("imagebind-audio-vitb")
        latent = space.class_latents[1]
        estimate = encoder(space.render_audio(latent))
        cos = estimate @ latent / (np.linalg.norm(estimate) + 1e-12)
        assert cos > 0.8

    def test_larger_vision_encoder_is_more_robust(self, zoo, space):
        # Table VIII's capacity ordering: ViT-L beats ViT-B under sensor noise.
        small = zoo.module("clip-vit-b16-vision")
        large = zoo.module("clip-vit-l14-336-vision")
        rng = rng_for("robust")
        small_cos, large_cos = [], []
        for _ in range(12):
            latent = rng.normal(size=16)
            latent /= np.linalg.norm(latent)
            image = space.render_image(latent) + rng.normal(0, 0.35, size=(3, 24, 24))
            for encoder, out in ((small, small_cos), (large, large_cos)):
                estimate = encoder(image)
                out.append(estimate @ latent / (np.linalg.norm(estimate) + 1e-12))
        assert np.mean(large_cos) > np.mean(small_cos)


class TestHeads:
    def test_cosine_head_ranks_matching_class(self, zoo, space):
        head = CosineSimilarityHead()
        assert head.rank(space.class_latents[4], space.class_latents) == 4

    def test_infonce_match_accuracy_perfect_on_identical(self, space):
        head = InfoNCEHead()
        embs = space.class_latents
        assert head.match_accuracy(embs, embs) == 1.0

    def test_infonce_loss_lower_when_aligned(self, space):
        head = InfoNCEHead()
        embs = space.class_latents
        rng = rng_for("nce")
        shuffled = embs[rng.permutation(len(embs))]
        assert head.loss(embs, embs) < head.loss(embs, shuffled)

    def test_infonce_temperature_validated(self):
        with pytest.raises(ValueError):
            InfoNCEHead(temperature=0)

    def test_classifier_fit_predict(self, space):
        head = LinearClassifierHead("probe")
        features = space.class_latents
        labels = np.arange(len(features))
        head.fit(features, labels, num_classes=len(features))
        assert head.predict(features[3]) == 3

    def test_classifier_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            LinearClassifierHead("probe").predict(np.zeros(16))


class TestLanguageModelHead:
    def test_answer_ranks_correct_class(self, zoo, space):
        lm = zoo.module("vicuna-7b")
        question = space.question_tokens(5)
        answer = lm.answer(space.class_latents[7], question, space.class_latents)
        assert answer == 7

    def test_generate_emits_answer_tokens(self, zoo, space):
        lm = zoo.module("vicuna-7b")
        question = space.question_tokens(5)
        emitted = lm.generate(
            space.class_latents[2], question, space.class_latents, space.tokens_from_latent
        )
        assert np.array_equal(emitted, space.tokens_for_class(2))

    def test_uncalibrated_lm_raises(self):
        lm = TinyAnswerLM("fresh", dim=32, depth=1)
        with pytest.raises(RuntimeError):
            lm.refined_latent(np.zeros(16), np.zeros(4, dtype=int))


class TestSplitEqualsCentralized:
    """The Table VIII mechanism: lossless transport => identical outputs."""

    def test_retrieval_bitwise_identical(self, zoo, space):
        model = zoo.model("clip-vit-b16")
        central = CentralizedPipeline(model)
        split = SplitPipeline(model)
        prompts = space.prompt_set()
        rng = rng_for("eq")
        for _ in range(5):
            image = space.sample_image(int(rng.integers(12)), 0.4, rng)
            assert split.retrieve(image, prompts) == central.retrieve(image, prompts)

    def test_embeddings_bitwise_identical(self, zoo, space):
        model = zoo.model("clip-vit-b16")
        image = space.sample_image(0, 0.3, rng_for("emb"))
        a = CentralizedPipeline(model).embed_image(image)
        b = SplitPipeline(model).embed_image(image)
        assert np.array_equal(a, b)  # exact, not approx

    def test_decoder_vqa_identical(self, zoo, space):
        model = zoo.model("flint-v0.5-1b")
        image = space.sample_image(3, 0.2, rng_for("vqa"))
        question = space.question_tokens(1)
        central = CentralizedPipeline(model).answer_vqa_decoder(
            image, question, space.class_latents
        )
        split = SplitPipeline(model).answer_vqa_decoder(image, question, space.class_latents)
        assert central == split

    def test_alignment_identical(self, zoo, space):
        model = zoo.model("alignment-vitb16")
        rng = rng_for("align")
        images = np.stack([space.sample_image(c, 0.3, rng) for c in range(6)])
        audios = np.stack([space.sample_audio(c, 0.3, rng) for c in range(6)])
        central = CentralizedPipeline(model).alignment_accuracy(images, audios)
        split = SplitPipeline(model).alignment_accuracy(images, audios)
        assert central == split

    def test_wrong_task_raises(self, zoo, space):
        pipeline = CentralizedPipeline(zoo.model("clip-vit-b16"))
        with pytest.raises(ConfigurationError):
            pipeline.answer_vqa_decoder(
                np.zeros((3, 24, 24)), np.zeros(4, dtype=int), space.class_latents
            )

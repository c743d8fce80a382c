"""Batched forwards must be bit-identical (float64-exact) to sequential.

This is the contract the whole batching layer rests on: the batch axis is a
pure stacking axis, every matmul keeps its per-sample GEMM shape, and hence
batching can never move an accuracy number.  Each test compares a batched
forward against looping the per-sample forward with ``np.array_equal``
(exact, not approx) — for every encoder family, the LM, every head, and
every task-level pipeline API.
"""

import numpy as np
import pytest

from repro.core.catalog import MODEL_CATALOG, get_module
from repro.core.modules import ModuleKind
from repro.core.routing.batched import RequestPayload, ZooBatchBackend, execute_batched_burst
from repro.core.tasks import Task
from repro.datasets.benchmarks import get_benchmark
from repro.datasets.latent import AUDIO_DIM, LatentConceptSpace, TOKENS_PER_PROMPT, VOCAB_SIZE
from repro.models.evaluate import evaluate
from repro.models.pipeline import CentralizedPipeline, SplitPipeline
from repro.utils.seeding import rng_for


@pytest.fixture(scope="module")
def space():
    return LatentConceptSpace(num_classes=10, seed=5)


def _images(space, rng, count):
    return np.stack(
        [space.sample_image(int(rng.integers(space.num_classes)), 0.4, rng) for _ in range(count)]
    )


#: One encoder module per executable family (ViT, ResNet, text, audio).
ENCODER_MODULES = [
    "clip-vit-b16-vision",
    "clip-vit-l14-336-vision",
    "clip-rn50-vision",
    "clip-trf-38m",
    "imagebind-audio-vitb",
]


@pytest.mark.parametrize("module_name", ENCODER_MODULES)
def test_encoder_embed_batch_bitexact(zoo, space, module_name):
    module = zoo.module(module_name)
    kind = get_module(module_name).kind
    rng = rng_for("batch-eq", module_name)
    if kind is ModuleKind.VISION_ENCODER:
        batch = _images(space, rng, 6)
    elif kind is ModuleKind.AUDIO_ENCODER:
        batch = np.stack(
            [space.sample_audio(int(rng.integers(space.num_classes)), 0.4, rng) for _ in range(6)]
        )
    else:
        batch = rng.integers(0, VOCAB_SIZE, size=(6, TOKENS_PER_PROMPT))
    batched = module.embed_batch(batch)
    sequential = np.stack([module(sample) for sample in batch])
    assert np.array_equal(batched, sequential)


@pytest.mark.parametrize("module_name", ENCODER_MODULES)
def test_encoder_features_batch_bitexact(zoo, space, module_name):
    module = zoo.module(module_name)
    kind = get_module(module_name).kind
    rng = rng_for("batch-feat", module_name)
    if kind is ModuleKind.VISION_ENCODER:
        batch = _images(space, rng, 4)
    elif kind is ModuleKind.AUDIO_ENCODER:
        batch = rng.normal(size=(4, AUDIO_DIM))
    else:
        batch = rng.integers(0, VOCAB_SIZE, size=(4, TOKENS_PER_PROMPT))
    assert np.array_equal(
        module.features_batch(batch), np.stack([module.features(s) for s in batch])
    )


class TestLanguageModelBatch:
    def test_hidden_batch_bitexact(self, zoo, space):
        lm = zoo.module("vicuna-7b")
        rng = rng_for("lm-batch")
        latents = rng.normal(size=(5, 16))
        questions = rng.integers(0, VOCAB_SIZE, size=(5, 8))
        batched = lm.hidden_batch(latents, questions)
        sequential = np.stack([lm.hidden(l, q) for l, q in zip(latents, questions)])
        assert np.array_equal(batched, sequential)

    def test_answer_batch_bitexact(self, zoo, space):
        lm = zoo.module("tinyllama-1.1b")
        rng = rng_for("lm-ans")
        latents = space.class_latents[rng.integers(0, space.num_classes, size=6)]
        questions = rng.integers(0, VOCAB_SIZE, size=(6, 8))
        batched = lm.answer_batch(latents, questions, space.class_latents)
        sequential = [lm.answer(l, q, space.class_latents) for l, q in zip(latents, questions)]
        assert list(batched) == sequential

    def test_generate_batch_bitexact(self, zoo, space):
        lm = zoo.module("gpt2")
        rng = rng_for("lm-gen")
        latents = space.class_latents[rng.integers(0, space.num_classes, size=4)]
        questions = np.zeros((4, 1), dtype=int)
        batched = lm.generate_batch(latents, questions, space.class_latents, space.tokens_from_latent)
        for tokens, latent in zip(batched, latents):
            expected = lm.generate(latent, np.zeros(1, dtype=int), space.class_latents, space.tokens_from_latent)
            assert np.array_equal(tokens, expected)


class TestHeadBatch:
    def test_cosine_rank_batch_bitexact(self, space):
        from repro.models.heads import CosineSimilarityHead, cosine_scores, cosine_scores_batch

        rng = rng_for("cos-batch")
        queries = rng.normal(size=(9, 16))
        candidates = space.class_latents
        scores = cosine_scores_batch(queries, candidates)
        for i, query in enumerate(queries):
            assert np.array_equal(scores[i], cosine_scores(query, candidates))
        head = CosineSimilarityHead()
        ranks = head.rank_batch(queries, candidates)
        assert [int(r) for r in ranks] == [head.rank(q, candidates) for q in queries]

    def test_classifier_predict_batch_bitexact(self, space):
        from repro.models.heads import LinearClassifierHead

        head = LinearClassifierHead("probe")
        rng = rng_for("clf-batch")
        features = rng.normal(size=(40, 16))
        labels = rng.integers(0, 4, size=40)
        head.fit(features, labels, num_classes=4)
        fresh = rng.normal(size=(7, 16))
        assert np.array_equal(
            head.logits_batch(fresh), np.stack([head.logits(f) for f in fresh])
        )
        assert [int(p) for p in head.predict_batch(fresh)] == [head.predict(f) for f in fresh]


#: (model, benchmark) covering every task the zoo serves.
TASK_MATRIX = [
    ("clip-vit-b16", "cifar-10"),
    ("clip-rn50", "cifar-10"),
    ("encoder-vqa-small", "coco-retrieval"),
    ("flint-v0.5-1b", "vqa-v2"),
    ("image-classification-vitb16", "food-101-cls"),
    ("nlpconnect-vit-gpt2", "coco-captions"),
]


@pytest.mark.parametrize("pipeline_cls", [CentralizedPipeline, SplitPipeline])
@pytest.mark.parametrize("model_name,benchmark_name", TASK_MATRIX)
def test_pipeline_batch_apis_bitexact(zoo, pipeline_cls, model_name, benchmark_name):
    """Every batched task API == looping its per-sample counterpart."""
    spec = get_benchmark(benchmark_name)
    bench_space = spec.space()
    pipeline = pipeline_cls(zoo.model(model_name))
    task = MODEL_CATALOG[model_name].task
    rng = rng_for("pipeline-batch", model_name, benchmark_name)
    images = np.stack(
        [
            bench_space.sample_image(
                int(rng.integers(spec.num_classes)), spec.noise, rng, pixel_noise=spec.pixel_noise
            )
            for _ in range(5)
        ]
    )

    if task is Task.IMAGE_TEXT_RETRIEVAL:
        prompts = bench_space.prompt_set()
        batched = pipeline.retrieve_batch(images, prompts)
        sequential = [pipeline.retrieve(image, prompts) for image in images]
        assert [int(b) for b in batched] == sequential
    elif task is Task.ENCODER_VQA:
        questions = np.stack([bench_space.question_tokens(i) for i in range(5)])
        # Fit the probe once so predict has weights.
        feats = pipeline.vqa_features_batch(images, questions)
        seq_feats = np.stack(
            [pipeline.vqa_features(i, q) for i, q in zip(images, questions)]
        )
        assert np.array_equal(feats, seq_feats)
        pipeline.model.head.fit(feats, np.arange(5), num_classes=spec.num_classes)
        batched = pipeline.answer_vqa_encoder_batch(images, questions)
        sequential = [pipeline.answer_vqa_encoder(i, q) for i, q in zip(images, questions)]
        assert [int(b) for b in batched] == sequential
    elif task is Task.DECODER_VQA:
        questions = np.stack([bench_space.question_tokens(i) for i in range(5)])
        answers = bench_space.class_latents
        batched = pipeline.answer_vqa_decoder_batch(images, questions, answers)
        sequential = [
            pipeline.answer_vqa_decoder(i, q, answers) for i, q in zip(images, questions)
        ]
        assert [int(b) for b in batched] == sequential
    elif task is Task.IMAGE_CLASSIFICATION:
        embs = pipeline.embed_images(images)
        pipeline.model.head.fit(embs, np.arange(5), num_classes=spec.num_classes)
        batched = pipeline.classify_batch(images)
        sequential = [pipeline.classify(image) for image in images]
        assert [int(b) for b in batched] == sequential
    elif task is Task.IMAGE_CAPTIONING:
        answers = bench_space.class_latents
        batched = pipeline.caption_batch(images, answers, bench_space.tokens_from_latent)
        for tokens, image in zip(batched, images):
            assert np.array_equal(
                tokens, pipeline.caption(image, answers, bench_space.tokens_from_latent)
            )
    else:  # pragma: no cover
        pytest.fail(f"unhandled task {task!r}")


class TestBatchedEmbeddings:
    def test_embed_images_bitexact(self, zoo, space):
        pipeline = CentralizedPipeline(zoo.model("clip-vit-b16"))
        rng = rng_for("emb-images")
        images = _images(space, rng, 6)
        batched = pipeline.embed_images(images)
        sequential = np.stack([pipeline.embed_image(image) for image in images])
        assert np.array_equal(batched, sequential)

    def test_embed_texts_bitexact(self, zoo, space):
        pipeline = CentralizedPipeline(zoo.model("clip-vit-b16"))
        rng = rng_for("emb-texts")
        prompts = rng.integers(0, VOCAB_SIZE, size=(6, TOKENS_PER_PROMPT))
        batched = pipeline.embed_texts(prompts)
        sequential = np.stack([pipeline.embed_text(p) for p in prompts])
        assert np.array_equal(batched, sequential)

    def test_batch_size_cannot_change_accuracy(self, zoo):
        a = evaluate("clip-vit-b16", "cifar-10", samples=30, zoo=zoo, batch_size=7)
        b = evaluate("clip-vit-b16", "cifar-10", samples=30, zoo=zoo, batch_size=256)
        assert a.accuracy == b.accuracy

    def test_batch_size_validated(self, zoo):
        with pytest.raises(ValueError, match="batch_size"):
            evaluate("clip-vit-b16", "cifar-10", samples=5, zoo=zoo, batch_size=0)

    def test_split_batch_equals_centralized_batch(self, zoo, space):
        rng = rng_for("split-batch")
        images = _images(space, rng, 5)
        model = zoo.model("clip-vit-b16")
        a = CentralizedPipeline(model).embed_images(images)
        b = SplitPipeline(model).embed_images(images)
        assert np.array_equal(a, b)  # exact, not approx


class TestRealComputeBurst:
    """The serving-side micro-batcher amortizes REAL numpy compute."""

    def test_burst_outputs_match_pipeline(self, zoo):
        from repro.cluster.topology import build_testbed
        from repro.core.engine import S2M3Engine
        from repro.profiles.devices import edge_device_names

        spec = get_benchmark("cifar-10")
        bench_space = spec.space()
        prompts = bench_space.prompt_set()
        rng = rng_for("real-burst")
        cluster = build_testbed(edge_device_names(), requester="jetson-a")
        engine = S2M3Engine(cluster, ["clip-vit-b16"])
        engine.deploy()
        pipeline = CentralizedPipeline(zoo.model("clip-vit-b16"))
        requests, payloads, expected = [], {}, []
        for _ in range(4):
            request = engine.request("clip-vit-b16")
            image = bench_space.sample_image(
                int(rng.integers(10)), spec.noise, rng, pixel_noise=spec.pixel_noise
            )
            requests.append(request)
            payloads[request.request_id] = RequestPayload(image=image, prompts=prompts)
            expected.append(pipeline.retrieve(image, prompts))
        backend = ZooBatchBackend(zoo=zoo, payloads=payloads)
        result = execute_batched_burst(
            cluster, engine.placement, requests, engine.latency_model(), backend=backend
        )
        assert [result.outputs[r.request_id] for r in requests] == expected

    def test_mixed_length_text_inputs_share_a_chunk(self, zoo):
        # Prompt sets and questions of differing token lengths are all valid
        # sequentially (the encoder pads/truncates per row); the batched
        # chunk must accept them too and produce the same embeddings.
        from repro.cluster.requests import InferenceRequest
        from repro.datasets.latent import TOKENS_PER_PROMPT

        module = zoo.module("clip-trf-38m")
        rng = rng_for("mixed-len")
        short_q = rng.integers(0, VOCAB_SIZE, size=3)
        long_q = rng.integers(0, VOCAB_SIZE, size=TOKENS_PER_PROMPT + 4)
        prompts = rng.integers(0, VOCAB_SIZE, size=(4, TOKENS_PER_PROMPT))
        requests = [InferenceRequest.for_model("clip-vit-b16", "jetson-a") for _ in range(3)]
        backend = ZooBatchBackend(
            zoo=zoo,
            payloads={
                requests[0].request_id: RequestPayload(prompts=prompts),
                requests[1].request_id: RequestPayload(question_tokens=short_q),
                requests[2].request_id: RequestPayload(question_tokens=long_q),
            },
        )
        backend.encode_chunk("clip-trf-38m", requests)
        assert np.array_equal(
            backend._embeddings[(requests[0].request_id, "clip-trf-38m")],
            module.encode_prompt_set(prompts),
        )
        assert np.array_equal(
            backend._embeddings[(requests[1].request_id, "clip-trf-38m")], module(short_q)
        )
        assert np.array_equal(
            backend._embeddings[(requests[2].request_id, "clip-trf-38m")], module(long_q)
        )

    def test_shared_prompt_set_encoded_once(self, zoo):
        # All retrieval requests in a burst carry the same zero-shot prompt
        # set; the backend must encode it once per chunk, not per request.
        spec = get_benchmark("cifar-10")
        bench_space = spec.space()
        prompts = bench_space.prompt_set()
        module = zoo.module("clip-trf-38m")
        calls = []
        original = module.embed_batch

        class _Spy:
            def embed_batch(self, batch):
                calls.append(batch.shape[0])
                return original(batch)

            def __getattr__(self, name):
                return getattr(module, name)

        backend = ZooBatchBackend(zoo=zoo, payloads={})
        backend.zoo = type("Z", (), {"module": lambda self, name: _Spy() if name == "clip-trf-38m" else zoo.module(name)})()
        from repro.cluster.requests import InferenceRequest

        requests = [InferenceRequest.for_model("clip-vit-b16", "jetson-a") for _ in range(4)]
        backend.payloads = {
            r.request_id: RequestPayload(image=None, prompts=prompts) for r in requests
        }
        backend.encode_chunk("clip-trf-38m", requests)
        assert calls == [prompts.shape[0]]  # 10 rows once, not 40
        for request in requests:
            block = backend._embeddings[(request.request_id, "clip-trf-38m")]
            assert np.array_equal(block, original(prompts))

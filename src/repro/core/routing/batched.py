"""Batched execution of request bursts (paper Sec. VI-C, "Multiple requests").

The queueing remedy: "group all the images that will be injected into the
same vision encoder and process them at once" — including requests from
*different* tasks that share a module.  This executor:

1. routes every request with the fastest-host rule (Eq. 7);
2. groups the burst's encoder invocations by (module, host) and runs each
   group as ONE batch, with the near-linear batch scaling of footnote 4;
3. completes each request's head once all its (batched) encodings land.

Compared with one-at-a-time FIFO service, batching amortizes per-invocation
setup: mean latency drops whenever >= 2 requests share a module.

With a :class:`ZooBatchBackend` the micro-batcher additionally amortizes
*real* compute: each (module, host) chunk runs ONE batched numpy forward
through the executable zoo (bit-identical to per-sample execution — see
:mod:`repro.models.layers`), and each request's head produces a real
answer, delivered via ``ExecutionResult.outputs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.requests import InferenceRequest
from repro.cluster.topology import EdgeCluster
from repro.core.catalog import get_module
from repro.core.modules import ModuleKind
from repro.core.placement.problem import Placement
from repro.core.routing.executor import (
    ExecutionResult,
    RequestOutcome,
    UplinkPool,
    check_run,
    transfer,
)
from repro.core.routing.latency import LatencyModel, RoutingDecision
from repro.core.tasks import Task
from repro.sim.trace import CATEGORY_HEAD
from repro.utils.errors import ConfigurationError, RoutingError


# ---------------------------------------------------------------------------
# Real-compute backend: the simulated micro-batches drive actual numpy work
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RequestPayload:
    """The real input data one request carries (only task-relevant fields).

    ``eq=False``: a generated ``__eq__`` over ndarray fields would raise on
    comparison (ambiguous array truth value); identity semantics are fine.
    """

    image: Optional[np.ndarray] = None
    question_tokens: Optional[np.ndarray] = None
    prompts: Optional[np.ndarray] = None          # (num_prompts, T) retrieval set
    audio: Optional[np.ndarray] = None
    answer_latents: Optional[np.ndarray] = None   # decoder-VQA answer vocabulary


@dataclass
class ZooBatchBackend:
    """Runs the burst's grouped encoder invocations as real batched forwards.

    ``payloads`` maps request ids to their input data.  Each chunk the
    simulated executor forms becomes ONE ``embed_batch`` call on the shared
    executable module (vision/audio inputs stack; text inputs — prompt sets
    and questions alike — concatenate row-wise), so two tasks sharing a text
    encoder genuinely share the batch, exactly as Sec. VI-C prescribes.
    Every produced embedding and answer is bit-identical to running the
    requests one at a time through :class:`~repro.models.pipeline.CentralizedPipeline`.
    """

    zoo: object  # ModelZoo; typed loosely to keep the sim layer import-light
    payloads: Dict[int, RequestPayload]
    _embeddings: Dict[Tuple[int, str], np.ndarray] = field(default_factory=dict)

    def reset(self) -> None:
        """Drop embeddings from prior bursts (called per ``execute_batched_burst``)."""
        self._embeddings.clear()

    @staticmethod
    def _require(request: InferenceRequest, value, modality: str) -> np.ndarray:
        if value is None:
            raise ConfigurationError(f"request {request.request_id} has no {modality} input")
        return value

    def payload_for(self, request: InferenceRequest) -> RequestPayload:
        try:
            return self.payloads[request.request_id]
        except KeyError:
            raise ConfigurationError(
                f"no payload for request {request.request_id}"
            ) from None

    def encode_chunk(self, encoder_name: str, chunk: Sequence[InferenceRequest]) -> None:
        """One real batched forward for a (module, host) chunk."""
        # Deferred import: pure-simulation users of this module (no backend)
        # should not pay for the numpy model stack at import time.
        from repro.models.text import pad_token_rows

        kind = get_module(encoder_name).kind
        module = self.zoo.module(encoder_name)
        if kind is ModuleKind.VISION_ENCODER:
            images = np.stack(
                [self._require(r, self.payload_for(r).image, "image") for r in chunk]
            )
            embeddings = module.embed_batch(images)
            for request, embedding in zip(chunk, embeddings):
                self._embeddings[(request.request_id, encoder_name)] = embedding
        elif kind is ModuleKind.AUDIO_ENCODER:
            clips = np.stack(
                [self._require(r, self.payload_for(r).audio, "audio") for r in chunk]
            )
            embeddings = module.embed_batch(clips)
            for request, embedding in zip(chunk, embeddings):
                self._embeddings[(request.request_id, encoder_name)] = embedding
        elif kind is ModuleKind.TEXT_ENCODER:
            # Mixed batch: retrieval prompt sets and VQA questions share the
            # same encoder invocation, concatenated row-wise.  Identical
            # prompt sets (the common case: every retrieval request in a
            # burst carries the same zero-shot set) encode ONCE — batched
            # rows are composition-independent, so sharing is bit-exact.
            rows: List[np.ndarray] = []
            spans: List[Tuple[InferenceRequest, bool, int, int]] = []
            seen: Dict[tuple, Tuple[int, int]] = {}
            offset = 0
            for request in chunk:
                payload = self.payload_for(request)
                if payload.prompts is not None:
                    # Normalize with the encoder's own pad/truncate rule so
                    # mixed-length inputs can share one concatenated batch.
                    prompt_rows = np.ascontiguousarray(pad_token_rows(payload.prompts))
                    key = (prompt_rows.shape, prompt_rows.tobytes())
                    if key in seen:
                        spans.append((request, True, *seen[key]))
                        continue
                    seen[key] = (offset, prompt_rows.shape[0])
                    rows.append(prompt_rows)
                    spans.append((request, True, offset, prompt_rows.shape[0]))
                    offset += prompt_rows.shape[0]
                elif payload.question_tokens is not None:
                    rows.append(pad_token_rows(payload.question_tokens)[None, :])
                    spans.append((request, False, offset, 1))
                    offset += 1
                else:
                    raise ConfigurationError(
                        f"request {request.request_id} has no text input"
                    )
            embeddings = module.embed_batch(np.concatenate(rows, axis=0))
            for request, is_prompt_set, start, size in spans:
                block = embeddings[start: start + size]
                self._embeddings[(request.request_id, encoder_name)] = (
                    block if is_prompt_set else block[0]
                )
        else:
            raise ConfigurationError(f"{encoder_name!r} is not an encoder module")

    def _embedding(self, request: InferenceRequest, kind: ModuleKind) -> np.ndarray:
        for name in request.model.encoders:
            if get_module(name).kind is kind:
                return self._embeddings[(request.request_id, name)]
        raise ConfigurationError(f"model {request.model.name!r} has no {kind.value}")

    def finish(self, request: InferenceRequest):
        """The request's real head output, from the batch-computed embeddings."""
        task = request.model.task
        head = self.zoo.module(request.model.head)
        payload = self.payload_for(request)
        if task is Task.IMAGE_TEXT_RETRIEVAL:
            image = self._embedding(request, ModuleKind.VISION_ENCODER)
            prompts = self._embedding(request, ModuleKind.TEXT_ENCODER)
            return int(head.rank(image, prompts))
        if task is Task.DECODER_VQA:
            image = self._embedding(request, ModuleKind.VISION_ENCODER)
            question = self._require(request, payload.question_tokens, "question_tokens")
            answers = self._require(request, payload.answer_latents, "answer_latents")
            return int(head.answer(image, question, answers))
        if task is Task.ENCODER_VQA:
            image = self._embedding(request, ModuleKind.VISION_ENCODER)
            question = self._embedding(request, ModuleKind.TEXT_ENCODER)
            return int(head.predict(np.concatenate([image, question])))
        if task is Task.IMAGE_CLASSIFICATION:
            image = self._embedding(request, ModuleKind.VISION_ENCODER)
            return int(head.predict(image))
        raise ConfigurationError(
            f"real-compute batching does not support task {task.value!r}"
        )


def execute_batched_burst(
    cluster: EdgeCluster,
    placement: Placement,
    requests: Sequence[InferenceRequest],
    latency_model: LatencyModel,
    max_batch_size: int = 16,
    backend: Optional[ZooBatchBackend] = None,
) -> ExecutionResult:
    """Serve a simultaneous burst with module-level batch aggregation.

    All requests are treated as arriving at t=0 (the Table X burst shape);
    per-request arrival offsets would require a batching *window* policy,
    which is out of the paper's scope.

    With ``backend`` set, every simulated chunk also runs REAL batched
    numpy inference; per-request answers land in ``result.outputs``.
    """
    if isinstance(max_batch_size, bool) or not isinstance(max_batch_size, int) or max_batch_size < 1:
        raise ValueError(f"max_batch_size must be an int >= 1, got {max_batch_size!r}")
    check_run(cluster, placement, requests, latency_model)
    if backend is not None:
        backend.reset()  # a reused backend must not accumulate past bursts
    result = ExecutionResult(trace=cluster.trace)
    sim = cluster.sim
    nics = UplinkPool(sim)

    # ------------------------------------------------------------------
    # Route everything up front, then group encoder work by (module, host).
    # ------------------------------------------------------------------
    routings: Dict[int, RoutingDecision] = {}
    groups: Dict[Tuple[str, str], List[InferenceRequest]] = {}
    for request in requests:
        decision = latency_model.route(request, placement)
        routings[request.request_id] = decision
        for encoder_name in request.model.encoders:
            host = decision.host_of(encoder_name)
            groups.setdefault((encoder_name, host), []).append(request)

    # Per request, the encodings still to land: the head runs one hop after
    # the last one lands (the join).
    pending = {request.request_id: len(request.model.encoders) for request in requests}

    def run_group(encoder_name: str, host: str, members: List[InferenceRequest]) -> None:
        module = latency_model.module(encoder_name)
        device = cluster.device(host)
        # FIFO chunking at the batch-size cap.
        ordered = sorted(members, key=lambda r: r.request_id)
        chunks = [ordered[lo: lo + max_batch_size] for lo in range(0, len(ordered), max_batch_size)]

        def send(c: int, i: int) -> None:
            """Ship chunk ``c``'s inputs one by one from member ``i``, then run it."""
            chunk = chunks[c]
            if i == len(chunk):
                # One batched execution for the whole chunk.  Work scales use
                # the heaviest member (a shared text encoder may serve a
                # retrieval prompt set and a VQA question in one batch).
                heaviest = max(chunk, key=lambda r: r.model.scale_for(encoder_name))
                device.execute(module, lambda _service: encoded(c), model=heaviest.model,
                               batch_size=len(chunk), label=f"batch[{len(chunk)}] {encoder_name}")
                return
            # Inputs still ship individually (they originate at requesters);
            # serialize each requester's uplink.
            request = chunk[i]
            modality = module.modality or "image"
            payload = request.model.payload_bytes(modality)
            uplink = nics.get(request.source)
            uplink.acquire(transfer, cluster, request.source, host, payload,
                           f"{modality}->{host}", request.request_id, sent, uplink, c, i)

        def sent(uplink, c: int, i: int) -> None:
            uplink.release()
            send(c, i + 1)

        def encoded(c: int) -> None:
            if backend is not None:
                backend.encode_chunk(encoder_name, chunks[c])
            ship(c, 0)

        def ship(c: int, j: int) -> None:
            """Ship chunk ``c``'s embeddings to their heads from member ``j``."""
            chunk = chunks[c]
            if j == len(chunk):
                if c + 1 < len(chunks):
                    send(c + 1, 0)
                return
            request = chunk[j]
            head_host = routings[request.request_id].host_of(request.model.head)
            seconds = cluster.network.transfer_seconds(host, head_host, module.output_bytes)
            if seconds > 0:
                sim.push(seconds, shipped, c, j)
            else:
                shipped(c, j)

        def shipped(c: int, j: int) -> None:
            sim.push(0.0, landed, chunks[c][j])
            ship(c, j + 1)

        send(0, 0)

    def landed(request: InferenceRequest) -> None:
        pending[request.request_id] -= 1
        if not pending[request.request_id]:
            sim.push(0.0, run_head, request)

    def run_head(request: InferenceRequest) -> None:
        decision = routings[request.request_id]
        head = latency_model.module(request.model.head)
        device = cluster.device(decision.host_of(head.name))

        def finished(_service: float) -> None:
            if backend is not None:
                result.outputs[request.request_id] = backend.finish(request)
            result.outcomes.append(RequestOutcome(request=request, routing=decision,
                                                  start_time=0.0, finish_time=sim.now))

        device.execute(head, finished, model=request.model, request_id=request.request_id,
                       label=f"head {head.name}", category=CATEGORY_HEAD)

    for (encoder_name, host), members in sorted(groups.items()):
        sim.push(0.0, run_group, encoder_name, host, members)
    # A request without encoders starts its head at once.
    for request in sorted(requests, key=lambda r: r.request_id):
        if not pending[request.request_id]:
            sim.push(0.0, run_head, request)
    sim.run()
    if len(result.outcomes) != len(requests):
        raise RoutingError("batched execution lost requests (deadlock?)")
    result.outcomes.sort(key=lambda outcome: outcome.request.request_id)
    return result

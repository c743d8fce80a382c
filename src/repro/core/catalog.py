"""The module and model catalogs (paper Tables II and V).

Parameter counts follow Table V; per-image/per-prompt compute demands
(``work``, in GFLOP-like units) follow published FLOP counts for the public
checkpoints.  Module *names* are the sharing keys: e.g. every model built on
ViT-B/16 references the same ``clip-vit-b16-vision`` entry, which is exactly
the reuse the paper's Insight 4 exploits.

Decoder-only VQA models pair a CLIP vision tower with an LLM head; the
retrieval text-encoder work is scaled per model (``work_scale``) because
zero-shot retrieval encodes the whole class-prompt set (~100 prompts) while
VQA encodes a single question.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.models import ModelSpec
from repro.core.modules import (
    FAMILY_ANALYTIC,
    FAMILY_CNN,
    FAMILY_TRANSFORMER,
    ModuleKind,
    ModuleSpec,
)
from repro.core.tasks import Task
from repro.utils.errors import ConfigurationError
from repro.utils.units import million

# ---------------------------------------------------------------------------
# Functional modules (Table V)
# ---------------------------------------------------------------------------

_VISION = ModuleKind.VISION_ENCODER
_TEXT = ModuleKind.TEXT_ENCODER
_AUDIO = ModuleKind.AUDIO_ENCODER
_LLM = ModuleKind.LANGUAGE_MODEL
_DIST = ModuleKind.DISTANCE
_CLS = ModuleKind.CLASSIFIER

_MODULES: List[ModuleSpec] = [
    # --- CLIP vision encoders (work = GFLOPs for one image at native res) ---
    ModuleSpec("clip-rn50-vision", _VISION, million(38), 4.1, FAMILY_CNN),
    ModuleSpec("clip-rn101-vision", _VISION, million(56), 7.8, FAMILY_CNN),
    ModuleSpec("clip-rn50x4-vision", _VISION, million(87), 19.0, FAMILY_CNN),
    ModuleSpec("clip-rn50x16-vision", _VISION, million(168), 48.0, FAMILY_CNN),
    ModuleSpec("clip-rn50x64-vision", _VISION, million(421), 122.0, FAMILY_CNN),
    ModuleSpec("clip-vit-b32-vision", _VISION, million(88), 4.4, FAMILY_TRANSFORMER),
    ModuleSpec("clip-vit-b16-vision", _VISION, million(86), 17.6, FAMILY_TRANSFORMER),
    ModuleSpec("clip-vit-l14-vision", _VISION, million(304), 80.7, FAMILY_TRANSFORMER),
    ModuleSpec("clip-vit-l14-336-vision", _VISION, million(304), 130.0, FAMILY_TRANSFORMER),
    ModuleSpec("openclip-vit-h14-vision", _VISION, million(630), 150.0, FAMILY_TRANSFORMER),
    # --- CLIP text encoders (work = GFLOPs for ONE prompt; models scale it) ---
    ModuleSpec("clip-trf-38m", _TEXT, million(38), 0.40, FAMILY_TRANSFORMER, output_bytes=2048),
    ModuleSpec("clip-trf-59m", _TEXT, million(59), 0.50, FAMILY_TRANSFORMER, output_bytes=2560),
    ModuleSpec("clip-trf-85m", _TEXT, million(85), 0.60, FAMILY_TRANSFORMER, output_bytes=3072),
    ModuleSpec("clip-trf-151m", _TEXT, million(151), 0.75, FAMILY_TRANSFORMER, output_bytes=4096),
    ModuleSpec("openclip-trf-302m", _TEXT, million(302), 1.00, FAMILY_TRANSFORMER, output_bytes=4096),
    # --- Audio encoder (ImageBind's ViT-B audio tower) ---
    ModuleSpec("imagebind-audio-vitb", _AUDIO, million(85), 17.6, FAMILY_TRANSFORMER, output_bytes=4096),
    # --- LLM task heads (work = full answer generation, ~2 * params * 50 tok) ---
    ModuleSpec("vicuna-7b", _LLM, million(7000), 700.0, FAMILY_TRANSFORMER, output_bytes=1024),
    ModuleSpec("vicuna-13b", _LLM, million(13000), 1300.0, FAMILY_TRANSFORMER, output_bytes=1024),
    ModuleSpec("phi-3-mini", _LLM, million(3800), 380.0, FAMILY_TRANSFORMER, output_bytes=1024),
    ModuleSpec("tinyllama-1.1b", _LLM, million(1100), 110.0, FAMILY_TRANSFORMER, output_bytes=1024),
    ModuleSpec("gpt2", _LLM, million(124), 12.0, FAMILY_TRANSFORMER, output_bytes=1024),
    # --- Analytic / tiny task heads ---
    ModuleSpec("cosine-similarity", _DIST, 0, 0.001, FAMILY_ANALYTIC, output_bytes=256),
    ModuleSpec("infonce", _DIST, 0, 0.002, FAMILY_ANALYTIC, output_bytes=256),
    # Encoder-only VQA answer classifier: ~1K params (paper Table X "+1K").
    ModuleSpec("vqa-classifier", _CLS, 1_000, 0.001, FAMILY_ANALYTIC, output_bytes=256),
    # Food-101 linear probe: 512-dim x 101 classes ~= 52K (Table X "+52K").
    ModuleSpec("food101-classifier", _CLS, 52_000, 0.001, FAMILY_ANALYTIC, output_bytes=256),
]

MODULE_CATALOG: Dict[str, ModuleSpec] = {module.name: module for module in _MODULES}
if len(MODULE_CATALOG) != len(_MODULES):  # pragma: no cover - catalog sanity
    raise ConfigurationError("duplicate module name in catalog")


# ---------------------------------------------------------------------------
# Models (Table II)
# ---------------------------------------------------------------------------

#: Zero-shot retrieval encodes the benchmark's full class-prompt set; 100 is
#: representative of the evaluated benchmarks (Food-101, CIFAR-100, ...).
RETRIEVAL_PROMPT_SET = 100.0
#: VQA encodes one question (a couple of sentences).
QUESTION_PROMPTS = 2.0
#: Alignment encodes a small caption batch per request.
ALIGNMENT_PROMPTS = 8.0

#: Retrieval ships the tokenized prompt set; questions are tiny.
RETRIEVAL_TEXT_BYTES = 20_000
QUESTION_TEXT_BYTES = 2_000


def _retrieval(name: str, display: str, vision: str, text: str) -> ModelSpec:
    return ModelSpec(
        name=name,
        display_name=display,
        task=Task.IMAGE_TEXT_RETRIEVAL,
        encoders=(vision, text),
        head="cosine-similarity",
        work_scale={text: RETRIEVAL_PROMPT_SET},
        input_bytes={"text": RETRIEVAL_TEXT_BYTES},
    )


def _decoder_vqa(name: str, display: str, vision: str, llm: str) -> ModelSpec:
    return ModelSpec(
        name=name,
        display_name=display,
        task=Task.DECODER_VQA,
        encoders=(vision,),
        head=llm,
        input_bytes={"image": 150_000},
    )


_MODELS: List[ModelSpec] = [
    # --- Image-text retrieval: the 9 CLIP variants ---
    _retrieval("clip-rn50", "CLIP ResNet-50", "clip-rn50-vision", "clip-trf-38m"),
    _retrieval("clip-rn101", "CLIP ResNet-101", "clip-rn101-vision", "clip-trf-38m"),
    _retrieval("clip-rn50x4", "CLIP ResNet-50x4", "clip-rn50x4-vision", "clip-trf-59m"),
    _retrieval("clip-rn50x16", "CLIP ResNet-50x16", "clip-rn50x16-vision", "clip-trf-85m"),
    _retrieval("clip-rn50x64", "CLIP ResNet-50x64", "clip-rn50x64-vision", "clip-trf-151m"),
    _retrieval("clip-vit-b32", "CLIP ViT-B/32", "clip-vit-b32-vision", "clip-trf-38m"),
    _retrieval("clip-vit-b16", "CLIP ViT-B/16", "clip-vit-b16-vision", "clip-trf-38m"),
    _retrieval("clip-vit-l14", "CLIP ViT-L/14", "clip-vit-l14-vision", "clip-trf-85m"),
    _retrieval("clip-vit-l14-336", "CLIP ViT-L/14@336", "clip-vit-l14-336-vision", "clip-trf-85m"),
    # --- Encoder-only VQA (paper Table VI: Small = ViT-B/16, Large = ViT-L/14@336) ---
    ModelSpec(
        name="encoder-vqa-small",
        display_name="Encoder-only VQA (S)",
        task=Task.ENCODER_VQA,
        encoders=("clip-vit-b16-vision", "clip-trf-38m"),
        head="vqa-classifier",
        work_scale={"clip-trf-38m": QUESTION_PROMPTS},
        input_bytes={"text": QUESTION_TEXT_BYTES},
    ),
    ModelSpec(
        name="encoder-vqa-large",
        display_name="Encoder-only VQA (L)",
        task=Task.ENCODER_VQA,
        encoders=("clip-vit-l14-336-vision", "clip-trf-85m"),
        head="vqa-classifier",
        work_scale={"clip-trf-85m": QUESTION_PROMPTS},
        input_bytes={"text": QUESTION_TEXT_BYTES},
    ),
    # --- Decoder-only VQA (LLaVA family; vision tower shared with CLIP) ---
    _decoder_vqa("llava-v1.5-7b", "LLaVA-v1.5-7B", "clip-vit-l14-336-vision", "vicuna-7b"),
    _decoder_vqa("llava-next-7b", "LLaVA-Next-7B", "clip-vit-l14-336-vision", "vicuna-7b"),
    _decoder_vqa("llava-v1.5-13b", "LLaVA-v1.5-13B", "clip-vit-l14-336-vision", "vicuna-13b"),
    _decoder_vqa("llava-next-13b", "LLaVA-Next-13B", "clip-vit-l14-336-vision", "vicuna-13b"),
    _decoder_vqa("xtuner-phi-3-mini", "xtuner-Phi-3-Mini", "clip-vit-l14-336-vision", "phi-3-mini"),
    _decoder_vqa("flint-v0.5-1b", "Flint-v0.5-1B", "clip-vit-l14-336-vision", "tinyllama-1.1b"),
    _decoder_vqa("llava-v1.5-7b-s", "LLaVA-v1.5-7B (S)", "clip-vit-b16-vision", "vicuna-7b"),
    _decoder_vqa("flint-v0.5-1b-s", "Flint-v0.5-1B (S)", "clip-vit-b16-vision", "tinyllama-1.1b"),
    # --- Cross-modal alignment ---
    ModelSpec(
        name="imagebind",
        display_name="ImageBind",
        task=Task.CROSS_MODAL_ALIGNMENT,
        encoders=("openclip-vit-h14-vision", "openclip-trf-302m", "imagebind-audio-vitb"),
        head="infonce",
        work_scale={"openclip-trf-302m": ALIGNMENT_PROMPTS},
    ),
    # Lightweight alignment model used in the multi-task study (Table X):
    # shares ViT-B/16 vision and CLIP TRF with retrieval; adds only the
    # 85M audio tower (the "+85M" row).
    ModelSpec(
        name="alignment-vitb16",
        display_name="Alignment (ViT-B/16)",
        task=Task.CROSS_MODAL_ALIGNMENT,
        encoders=("clip-vit-b16-vision", "clip-trf-38m", "imagebind-audio-vitb"),
        head="infonce",
        work_scale={"clip-trf-38m": ALIGNMENT_PROMPTS},
    ),
    # --- Image classification (Table X "+52K" row) ---
    ModelSpec(
        name="image-classification-vitb16",
        display_name="Image Classification (ViT-B/16)",
        task=Task.IMAGE_CLASSIFICATION,
        encoders=("clip-vit-b16-vision",),
        head="food101-classifier",
    ),
    # --- Image captioning (NLP Connect ViT-GPT2) ---
    ModelSpec(
        name="nlpconnect-vit-gpt2",
        display_name="NLP Connect ViT-GPT2",
        task=Task.IMAGE_CAPTIONING,
        encoders=("clip-vit-b16-vision",),
        head="gpt2",
    ),
]

MODEL_CATALOG: Dict[str, ModelSpec] = {model.name: model for model in _MODELS}
if len(MODEL_CATALOG) != len(_MODELS):  # pragma: no cover - catalog sanity
    raise ConfigurationError("duplicate model name in catalog")

# Validate referential integrity and kind compatibility once at import time.
for _model in _MODELS:
    for _i, _enc_name in enumerate(_model.encoders):
        if _enc_name not in MODULE_CATALOG:
            raise ConfigurationError(f"model {_model.name!r} references unknown module {_enc_name!r}")
        if not MODULE_CATALOG[_enc_name].is_encoder:
            raise ConfigurationError(f"model {_model.name!r} lists head {_enc_name!r} as encoder")
    if _model.head not in MODULE_CATALOG:
        raise ConfigurationError(f"model {_model.name!r} references unknown head {_model.head!r}")
    if not MODULE_CATALOG[_model.head].is_head:
        raise ConfigurationError(f"model {_model.name!r} lists encoder {_model.head!r} as head")


# ---------------------------------------------------------------------------
# Lookup helpers
# ---------------------------------------------------------------------------

def get_module(name: str) -> ModuleSpec:
    """Look up a module by name, raising :class:`ConfigurationError` if unknown."""
    try:
        return MODULE_CATALOG[name]
    except KeyError:
        raise ConfigurationError(f"unknown module {name!r}") from None


def get_model(name: str) -> ModelSpec:
    """Look up a model by name, raising :class:`ConfigurationError` if unknown."""
    try:
        return MODEL_CATALOG[name]
    except KeyError:
        raise ConfigurationError(f"unknown model {name!r}") from None


def list_models() -> List[ModelSpec]:
    """All catalogued models in declaration order."""
    return list(MODEL_CATALOG.values())

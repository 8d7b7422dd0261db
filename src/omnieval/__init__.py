"""omnieval: a model-agnostic evaluation harness for LLMs over HTTP backends.

Pipeline: unified-JSON dataset -> prompt assembly -> backend inference ->
answer extraction -> metric estimation -> aggregated reports.
"""

from .backends import (
    Backend,
    GenerationOptions,
    HttpBackend,
    LoglikelihoodResult,
    ModelResponse,
    StubBackend,
)
from .dataset import DatasetManifest, EvalItem, FewShotExemplar, load_dataset, validate_item
from .estimators import (
    MetricValue,
    QuestionOutcome,
    bleu,
    corpus_bleu,
    rouge_l,
    rouge_n,
    score_choice_exact,
    score_fill_blank,
    score_multi_choice,
)
from .filters import (
    ExtractedAnswer,
    ExtractionRule,
    ExtractionStatus,
    QuestionType,
    extract_answer,
    normalize_text,
)
from .prompts import PromptBundle, PromptTemplate, Turn, flatten_bundle, render_choice_block, render_prompt
from .report import MetricReport, aggregate
from .runner import (
    ResponseCache,
    RunConfig,
    RunRecord,
    model_extract,
    run_generation_eval,
    run_ppl_eval,
    with_retries,
)

__version__ = "0.1.0"

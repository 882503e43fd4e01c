"""Chain-of-thought slot-tracking datasets from task-oriented dialogues.

The pipeline: load or convert a corpus (corpus), derive per-slot change
chains (chains), render prompt/target examples with coarse explanations
(builder), paraphrase explanations through a completion API (refiner),
and score predictions with joint goal accuracy plus bucketed breakdowns
(evaluator). The cli module wires the same steps into one binary.
"""

__version__ = "0.1.0"

from .builder import (
    CoTExample,
    ExampleMeta,
    PromptTemplate,
    TARGET_SEPARATOR,
    build_coarse_explanation,
    build_dataset,
    build_example,
    build_question,
    parse_generation,
    read_examples,
    render_history,
    render_prompt,
    render_target,
)
from .chains import (
    SlotChain,
    StepHistogram,
    extract_chain,
    max_step_at_turns,
    step_histogram,
)
from .corpus import (
    Corpus,
    Dialogue,
    Schema,
    SlotSchema,
    TurnPair,
    ingest_legacy,
    load_corpus,
    load_schema,
    merge_corpora,
    save_corpus,
    save_schema,
)
from .errors import (
    AuthError,
    DuplicatePredictionError,
    EmptyChainError,
    EmptyCompletionError,
    EmptyGenerationError,
    FormatError,
    InvalidFractionError,
    NetworkError,
    SlotchainError,
    TurnOutOfRangeError,
    UnknownDialogueError,
    UnknownSlotError,
    ValidationError,
)
from .evaluator import (
    Bucket,
    BucketResult,
    BucketSpec,
    EvalReport,
    PredictionRecord,
    bucketize,
    compute_jga,
    fine_grained_report,
    load_bucket_spec,
    load_predictions,
    low_resource_sample,
    read_report,
    render_report,
)
from .normalize import (
    DEFAULT_POLICY,
    DONTCARE_VALUE,
    NONE_VALUE,
    NormalizationPolicy,
    normalize_value,
    values_match,
)
from .refiner import (
    RefineConfig,
    RefineResult,
    load_refine_config,
    refine_batch,
    refine_one,
    strip_speaker_tags,
)

"""Answer triggering with dependency-graph alignment features.

The pipeline ingests WikiQA-format question/answer groups with CoNLL-U
dependency parses, extracts graph alignment features (edit distance, TF-IDF
similarity at word/pair/triplet level, relation/vocabulary/graph coverage)
alongside lexical baselines (BM25, n-gram coverage, embedding cosine), fuses
them with a logistic-regression trigger model, and evaluates with MAP/MRR and
question-level precision/recall/F-score.
"""

from .baselines import (
    EmbeddingTable,
    bm25_scores,
    load_embeddings,
    ngram_scores,
    semantic_similarities,
    tokenize,
)
from .combiner import (
    DEFAULT_MANIFEST,
    FEATURE_NAMES,
    FeatureResources,
    TrainConfig,
    TriggerModel,
    extract_features,
    load_model,
    save_model,
    sigmoid,
    train,
)
from .corpus import (
    QuestionGroup,
    Sentence,
    attach_parses,
    load_scores,
    load_wikiqa,
)
from .coverage import (
    align_subgraph,
    graph_coverage_features,
    relation_coverages,
    vocabulary_coverages,
)
from .errors import ConfigError, IngestionError, QaTriggerError
from .evaluation import (
    EvalReport,
    QuestionIndex,
    triggering_report,
    tune_threshold,
)
from .ged import graph_edit_distances, solve_assignment
from .graphsim import (
    DfTable,
    build_df,
    graph_similarities,
    load_df_table,
    save_df_table,
)

__version__ = "0.1.0"

#!/usr/bin/env python3
"""End-to-end run on the bundled mini corpus, through the library API.

featurize -> train -> tune -> evaluate, mirroring the CLI subcommands; the
trigger model fuses the eight graph-alignment features and is compared
against a threshold-tuned BM25 baseline on the dev split.
"""

from pathlib import Path

from qatrigger import (
    AnswerPool,
    FeatureResources,
    ScoredGroup,
    TrainConfig,
    attach_parses,
    extract_features,
    load_pos_table,
    load_wikiqa,
    tokenize,
    train,
    triggering_report,
    tune_threshold,
)
from qatrigger.baselines import bm25_score
from qatrigger.combiner import DEFAULT_MANIFEST
from qatrigger.ged import GedConfig
from qatrigger.graphsim import build_df

MINI = Path(__file__).resolve().parent.parent / "tests" / "data" / "mini"


def load_split(split):
    groups = load_wikiqa(MINI / f"{split}.tsv")
    return attach_parses(groups, MINI / f"parses_{split}.conllu", MINI / f"index_{split}.tsv")


train_groups = load_split("train")
dev_groups = load_split("dev")
test_groups = load_split("test")

# Resources: DF tables from the training split, default POS cost table file.
sentences = [g.question for g in train_groups]
sentences += [s for g in train_groups for _, s, _ in g.candidates]
resources = FeatureResources(
    ged_config=GedConfig(pos_table=load_pos_table(MINI / "pos_costs.tsv")),
    df_tables=build_df(sentences),
    alphas=(0.0, 0.0, 0.0),
)


def featurize(groups):
    rows = []
    for group in groups:
        for pair in group.pairs():
            rows.append((pair, extract_features(pair, resources, DEFAULT_MANIFEST)))
    return rows


train_rows = featurize(train_groups)
print(f"featurized {len(train_rows)} training pairs with {len(DEFAULT_MANIFEST)} features")

model = train(
    [values for _, values in train_rows],
    [pair.gold_label for pair, _ in train_rows],
    DEFAULT_MANIFEST,
    TrainConfig(lr=0.1, epochs=200, l2=1e-4),
)
for name, weight in sorted(zip(model.feature_names, model.weights), key=lambda x: -abs(x[1])):
    print(f"  weight {name:15s} {weight:+.3f}")


def scored(groups, score_of):
    out = []
    for group in groups:
        candidates = tuple(
            (pair.candidate_id, score_of(pair), pair.gold_label) for pair in group.pairs()
        )
        out.append(ScoredGroup(group.question_id, candidates))
    return out


model_score = lambda pair: model.prob(extract_features(pair, resources, DEFAULT_MANIFEST))
dev_scored = scored(dev_groups, model_score)
threshold, dev_f1 = tune_threshold(dev_scored)
print(f"\ntuned threshold {threshold:.4f} -> dev F1 {dev_f1:.2f}")

report = triggering_report(scored(test_groups, model_score), threshold)
print("\ntest-set report (graph-feature model):")
print(report.as_text())

# BM25 baseline, threshold tuned on the same dev split.
pools = {
    g.question_id: AnswerPool.build([tokenize(s.text) for _, s, _ in g.candidates])
    for g in dev_groups + test_groups
}
bm25 = lambda pair: bm25_score(
    tokenize(pair.question.text), tokenize(pair.answer.text), pools[pair.question_id]
)
bm25_threshold, bm25_dev_f1 = tune_threshold(scored(dev_groups, bm25))
bm25_report = triggering_report(scored(test_groups, bm25), bm25_threshold)
print(f"\nBM25 baseline: dev F1 {bm25_dev_f1:.2f}, test report:")
print(bm25_report.as_text())

print(
    f"\ngraph features beat BM25 on dev ({dev_f1:.2f} vs {bm25_dev_f1:.2f}): "
    "the word-salad distractors share the question's words but not its edges."
)

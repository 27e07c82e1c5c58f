#!/usr/bin/env python3
"""End-to-end run on the bundled mini corpus, through the library API.

featurize -> train -> tune -> evaluate, mirroring the CLI subcommands; the
trigger model fuses the eight graph-alignment features and is compared
against a threshold-tuned BM25 baseline on the dev split.
"""

from pathlib import Path

from qatrigger import (
    FeatureResources,
    QuestionIndex,
    TrainConfig,
    attach_parses,
    extract_features,
    load_pos_table,
    load_wikiqa,
    train,
    triggering_report,
    tune_threshold,
)
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

# Resources: DF tables from the training split's parses, default POS cost
# table file.
resources = FeatureResources(
    ged_config=GedConfig(pos_table=load_pos_table(MINI / "pos_costs.tsv")),
    df_tables=build_df(parse for g in train_groups for parse in g.parses),
    alphas=(0.0, 0.0, 0.0),
)


def featurize(groups, manifest=DEFAULT_MANIFEST):
    """One feature row per candidate, every group in order, in one batch."""
    return extract_features(groups, resources, manifest)


def indexed(groups):
    """The question index of the groups' candidates, every group in order;
    it serves every score column of those candidates."""
    rows = [(g.question_id, cid, label) for g in groups for cid, _, label in g.candidates]
    return QuestionIndex.build(rows)


train_rows = featurize(train_groups)
print(f"featurized {len(train_rows)} training pairs with {len(DEFAULT_MANIFEST)} features")

model = train(
    train_rows,
    [label for g in train_groups for _, _, label in g.candidates],
    DEFAULT_MANIFEST,
    TrainConfig(),
)
for name, weight in sorted(zip(model.feature_names, model.weights), key=lambda x: -abs(x[1])):
    print(f"  weight {name:15s} {weight:+.3f}")

dev_index, test_index = indexed(dev_groups), indexed(test_groups)
threshold, dev_f1 = tune_threshold(dev_index, model.scores(featurize(dev_groups)))
print(f"\ntuned threshold {threshold:.4f} -> dev F1 {dev_f1:.2f}")

report = triggering_report(test_index, model.scores(featurize(test_groups)), threshold)
print("\ntest-set report (graph-feature model):")
print(report.as_text())

# BM25 baseline, threshold tuned on the same dev split; each question's
# candidates form its BM25 pool.
bm25 = lambda groups: [row[0] for row in featurize(groups, ["bm25"])]
bm25_threshold, bm25_dev_f1 = tune_threshold(dev_index, bm25(dev_groups))
bm25_report = triggering_report(test_index, bm25(test_groups), bm25_threshold)
print(f"\nBM25 baseline: dev F1 {bm25_dev_f1:.2f}, test report:")
print(bm25_report.as_text())

print(
    f"\ngraph features beat BM25 on dev ({dev_f1:.2f} vs {bm25_dev_f1:.2f}): "
    "the word-salad distractors share the question's words but not its edges."
)

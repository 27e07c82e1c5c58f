"""Command-line pipeline: featurize, train, tune, predict, evaluate, build-df.

Configuration comes from an INI-style file of `key = value` lines under
`[section]` headers.  Values may be overridden by environment variables named
QATRIGGER_<SECTION>_<KEY> and by repeated `--set section.key=value` flags
(flags win over the environment, which wins over the file).  Paths inside a
config file are resolved relative to the file's directory; overrides are
resolved relative to the working directory.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import combiner
from .baselines import load_embeddings
from .combiner import (
    DEFAULT_MANIFEST,
    FEATURE_NAMES,
    FeatureResources,
    TrainConfig,
    _fmt,
    extract_features,
    load_model,
    save_model,
    train,
)
from .corpus import QuestionGroup, Sentence, attach_parses, load_scores, load_wikiqa
from .errors import ConfigError, IngestionError, QaTriggerError, open_text, parse_number
from .evaluation import ScoredGroup, triggering_report, tune_threshold
from .ged import GedConfig, load_pos_table
from .graphsim import LEVELS, build_df, load_df_table, save_df_table

ENV_PREFIX = "QATRIGGER"
SPLITS = ("train", "dev", "test")

_POSITIONAL_NOTE = (
    "When no index file is configured for a split, parses align positionally: "
    "all questions first, then all candidates, both in corpus order."
)


def _key(section: str, default: object = None, key: str | None = None):
    """A RunConfig field set by `[section] key`; the key defaults to the field name."""
    return field(default=default, metadata={"section": section, "key": key})


@dataclass
class RunConfig:
    """Typed view of the configuration file plus overrides.

    Each field names its INI section (and key) in its metadata; its type
    picks the parser: a path, a finite number, an integer or the feature
    manifest.
    """

    train: Path | None = _key("data")
    dev: Path | None = _key("data")
    test: Path | None = _key("data")
    conllu_train: Path | None = _key("data")
    conllu_dev: Path | None = _key("data")
    conllu_test: Path | None = _key("data")
    index_train: Path | None = _key("data")
    index_dev: Path | None = _key("data")
    index_test: Path | None = _key("data")
    scores: Path | None = _key("data")
    embeddings: Path | None = _key("data")
    df_word: Path | None = _key("resources")
    df_pair: Path | None = _key("resources")
    df_triplet: Path | None = _key("resources")
    pos_costs: Path | None = _key("resources")
    manifest: tuple[str, ...] = _key("features", DEFAULT_MANIFEST)
    # Each [hyper] default is the library's, read from the field it sets.
    alpha1: float = _key("hyper", FeatureResources.alphas[0])
    alpha2: float = _key("hyper", FeatureResources.alphas[1])
    alpha3: float = _key("hyper", FeatureResources.alphas[2])
    subgraph_m: int = _key("hyper", FeatureResources.subgraph_m, key="m")
    edge_weight: float = _key("hyper", GedConfig.edge_weight)
    delete_cost: float = _key("hyper", GedConfig.delete_cost)
    k1: float = _key("hyper", FeatureResources.k1)
    b: float = _key("hyper", FeatureResources.b)
    n_max: int = _key("hyper", FeatureResources.n_max)
    lr: float = _key("hyper", TrainConfig.lr)
    epochs: int = _key("hyper", TrainConfig.epochs)
    l2: float = _key("hyper", TrainConfig.l2)
    threshold: float = _key("hyper", TrainConfig.threshold)
    bm25_threshold: float | None = _key("baselines")
    ngram_threshold: float | None = _key("baselines")
    semvec_threshold: float | None = _key("baselines", 0.70)

    def validate(self) -> None:
        if min(self.alpha1, self.alpha2, self.alpha3) < 0:
            raise ConfigError("alphas must be >= 0")
        if self.subgraph_m < 0:
            raise ConfigError("subgraph_m must be >= 0")
        if not 0.0 <= self.b <= 1.0:
            raise ConfigError("b must be in [0, 1]")
        if self.k1 < 0 or self.n_max < 1:
            raise ConfigError("k1 must be >= 0 and n_max >= 1")
        if self.lr <= 0 or self.epochs < 1 or self.l2 < 0:
            raise ConfigError("lr must be > 0, epochs >= 1, l2 >= 0")
        if self.edge_weight < 0 or self.delete_cost < 0:
            raise ConfigError("edge_weight and delete_cost must be >= 0")
        bad = [name for name in self.manifest if name not in FEATURE_NAMES]
        if bad:
            raise ConfigError(f"unknown features in manifest: {', '.join(bad)}")


# (section, key) -> RunConfig field name, and field name -> type.
_FIELDS = {
    (f.metadata["section"], f.metadata["key"] or f.name): f.name for f in fields(RunConfig)
}
_TYPES = get_type_hints(RunConfig)


def _apply(config: RunConfig, section: str, key: str, value: str, base: Path | None) -> None:
    section, key = section.lower(), key.lower()
    name = _FIELDS.get((section, key))
    if name is None:
        raise ConfigError(f"unknown configuration key [{section}] {key}")
    kind = _TYPES[name]
    if kind == Path | None:
        path = Path(value)
        if base is not None and not path.is_absolute():
            path = base / path
        setattr(config, name, path)
    elif kind == tuple[str, ...]:
        setattr(config, name, tuple(n.strip() for n in value.split(",") if n.strip()))
    else:
        number, what = (int, "an integer") if kind is int else (float, "a number")
        try:
            parsed = number(value)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: not {what}: {value!r}") from exc
        if not math.isfinite(parsed):
            raise ConfigError(f"[{section}] {key}: not a finite number: {value!r}")
        setattr(config, name, parsed)


def load_config(
    config_path: str | Path | None,
    overrides: list[str] | None = None,
    env: dict[str, str] | None = None,
) -> RunConfig:
    config = RunConfig()
    if config_path is not None:
        path = Path(config_path)
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open_text(path) as handle:
                parser.read_file(handle)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except configparser.Error as exc:
            raise ConfigError(" ".join(str(exc).split())) from exc
        for section in parser.sections():
            for key, value in parser.items(section):
                _apply(config, section, key, value, base=path.parent.resolve())
    env = os.environ if env is None else env
    for name, value in sorted(env.items()):
        if not name.startswith(ENV_PREFIX + "_"):
            continue
        parts = name.split("_", 2)
        if len(parts) != 3:
            raise ConfigError(f"malformed environment override {name}")
        _apply(config, parts[1], parts[2], value, base=None)
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        _apply(config, section.strip(), key.strip(), value.strip(), base=None)
    config.validate()
    return config


def _require(value: Path | None, what: str) -> Path:
    if value is None:
        raise ConfigError(f"missing required configuration: {what}")
    return value


def load_split(config: RunConfig, split: str, with_parses: bool) -> list[QuestionGroup]:
    if split not in SPLITS:
        raise ConfigError(f"unknown split {split!r}")
    corpus_path = _require(getattr(config, split), f"[data] {split}")
    groups = load_wikiqa(corpus_path)
    if with_parses:
        conllu = getattr(config, f"conllu_{split}")
        if conllu is None:
            raise ConfigError(
                f"graph features need parses: set [data] conllu_{split}"
            )
        groups = attach_parses(groups, conllu, getattr(config, f"index_{split}"))
    return groups


def _needs_parses(manifest: tuple[str, ...]) -> bool:
    return any(name in combiner.GRAPH_FEATURES for name in manifest)


def _df_paths(config: RunConfig) -> dict[str, Path] | None:
    """The configured DF table path of each level, or None when none is set;
    a config that sets only some of them is an error."""
    paths = {level: getattr(config, f"df_{level}") for level in LEVELS}
    if all(p is None for p in paths.values()):
        return None
    if any(p is None for p in paths.values()):
        raise ConfigError("set all three DF table paths or none")
    return paths


def _df_tables(config: RunConfig) -> dict[str, object]:
    """Load the three DF tables, or derive them from the training split."""
    paths = _df_paths(config)
    if paths is not None:
        return {level: load_df_table(paths[level], level) for level in LEVELS}
    return build_df(_train_sentences(config))


def _train_sentences(config: RunConfig) -> list[Sentence]:
    """Every question and candidate sentence of the parsed train split."""
    groups = load_split(config, "train", with_parses=True)
    sentences = [g.question for g in groups]
    return sentences + [sent for g in groups for _, sent, _ in g.candidates]


def build_resources(
    config: RunConfig, manifest: tuple[str, ...], groups: list[QuestionGroup]
) -> FeatureResources:
    """Resources for the manifest's features.

    `groups` is unused, since extract_features builds each group's BM25 pool.
    It stays because bench/run.py, which changes only with the benchmark,
    passes it.
    """
    pos_table = {"pos_table": load_pos_table(config.pos_costs)} if config.pos_costs else {}
    resources = FeatureResources(
        ged_config=GedConfig(
            edge_weight=config.edge_weight, delete_cost=config.delete_cost, **pos_table
        ),
        alphas=(config.alpha1, config.alpha2, config.alpha3),
        subgraph_m=config.subgraph_m,
        k1=config.k1,
        b=config.b,
        n_max=config.n_max,
    )
    if any(name.startswith("sim_") for name in manifest):
        resources.df_tables = _df_tables(config)
    if "ext_score" in manifest:
        scores_path = _require(config.scores, "[data] scores (ext_score enabled)")
        resources.scores, duplicates = load_scores(scores_path)
        if duplicates:
            print(f"warning: {duplicates} duplicate score rows (last wins)", file=sys.stderr)
    if "semvec" in manifest:
        emb_path = _require(config.embeddings, "[data] embeddings (semvec enabled)")
        resources.embeddings = load_embeddings(emb_path)
    return resources


def cmd_featurize(config: RunConfig, split: str, out_path: Path) -> int:
    if not config.manifest:
        raise ConfigError("no features enabled")
    groups = load_split(config, split, with_parses=_needs_parses(config.manifest))
    resources = build_resources(config, config.manifest, groups)
    with open(out_path, "w", encoding="utf-8", newline="") as handle:
        handle.write(
            "question_id\tcandidate_id\tgold_label\t" + "\t".join(config.manifest) + "\n"
        )
        for group in groups:
            rows = extract_features(group, resources, config.manifest)
            for (cid, _, label), values in zip(group.candidates, rows):
                handle.write(
                    f"{group.question_id}\t{cid}\t{label}\t"
                    + "\t".join(_fmt(v) for v in values)
                    + "\n"
                )
    n_pairs = sum(len(g.candidates) for g in groups)
    print(f"featurized {len(groups)} questions / {n_pairs} pairs -> {out_path}")
    return 0


def read_features(
    path: str | Path,
) -> tuple[tuple[str, ...], list[tuple[str, str, int]], np.ndarray]:
    """Read a non-empty feature TSV of unique pairs and finite values into
    (feature_names, (question_id, candidate_id, label) per row, matrix)."""
    path = Path(path)
    keys: list[tuple[str, str, int]] = []
    seen: set[tuple[str, str]] = set()
    values: list[float] = []
    linenos: list[int] = []
    with open_text(path) as handle:
        header = handle.readline().rstrip("\r\n").split("\t")
        if header[:3] != ["question_id", "candidate_id", "gold_label"]:
            raise IngestionError(f"{path}: not a feature file (bad header)")
        names = tuple(header[3:])
        for lineno, line in enumerate(handle, start=2):
            line = line.rstrip("\r\n")
            if not line:
                continue
            columns = line.split("\t")
            if len(columns) != 3 + len(names):
                raise IngestionError(
                    f"{path}: line {lineno}: expected {3 + len(names)} columns"
                )
            try:
                label = int(columns[2])
                values.extend(map(float, columns[3:]))
            except ValueError:
                # Parsing the same fields again raises the named error.
                parse_number(columns[2], path, lineno, int)
                for v in columns[3:]:
                    parse_number(v, path, lineno)
            if label not in (0, 1):
                raise IngestionError(
                    f"{path}: line {lineno}: label must be 0 or 1, got {columns[2]!r}"
                )
            pair = (columns[0], columns[1])
            if pair in seen:
                raise IngestionError(f"{path}: line {lineno}: duplicate pair {pair}")
            seen.add(pair)
            keys.append((*pair, label))
            linenos.append(lineno)
    if not keys:
        raise IngestionError(f"{path}: no feature rows")
    matrix = np.array(values, dtype=float).reshape(len(keys), len(names))
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise IngestionError(f"{path}: line {linenos[row]}: feature value is not finite")
    return names, keys, matrix


def _scored_groups(keys: list[tuple[str, str, int]], scores: list[float]) -> list[ScoredGroup]:
    grouped: dict[str, list[tuple[str, float, int]]] = {}
    for (qid, cid, label), score in zip(keys, scores):
        grouped.setdefault(qid, []).append((cid, score, label))
    return [ScoredGroup(qid, tuple(cands)) for qid, cands in grouped.items()]


def cmd_train(config: RunConfig, features_path: Path, model_path: Path) -> int:
    names, keys, x = read_features(features_path)
    y = [label for _, _, label in keys]
    try:
        hyper = TrainConfig(
            lr=config.lr, epochs=config.epochs, l2=config.l2, threshold=config.threshold
        )
        model = train(x, y, names, hyper)
    except ValueError as exc:
        raise IngestionError(str(exc)) from exc
    save_model(model, model_path)
    loss, _, _ = combiner.loss_and_gradient(
        model.weights, model.bias, model.standardize(x), np.asarray(y, dtype=float), config.l2
    )
    predictions = [1 if p > 0.5 else 0 for p in model.scores(x)]
    accuracy = sum(p == label for p, label in zip(predictions, y)) / len(y)
    print(
        f"trained on {len(y)} pairs: epochs={config.epochs} "
        f"final_loss={loss:.6f} train_accuracy={accuracy:.4f} -> {model_path}"
    )
    return 0


def _score_features(model_path: Path, features_path: Path):
    """The model, the feature file's keys and matrix, and the model's
    probability for each row."""
    model = load_model(model_path)
    names, keys, matrix = read_features(features_path)
    if names != model.feature_names:
        raise ConfigError(
            f"feature file columns {names} do not match model features {model.feature_names}"
        )
    return model, keys, matrix, model.scores(matrix)


def cmd_tune(
    config: RunConfig, model_path: Path, features_path: Path, update_model: bool
) -> int:
    model, keys, _, scores = _score_features(model_path, features_path)
    groups = _scored_groups(keys, scores)
    try:
        threshold, best_f1 = tune_threshold(groups)
    except ValueError as exc:
        raise IngestionError(str(exc)) from exc
    print(f"threshold={_fmt(threshold)} dev_f1={best_f1:.2f}")
    if update_model:
        model.threshold = threshold
        save_model(model, model_path)
        print(f"model threshold updated -> {model_path}")
    return 0


def cmd_predict(
    config: RunConfig, model_path: Path, features_path: Path, out_path: Path
) -> int:
    _, keys, _, scores = _score_features(model_path, features_path)
    with open(out_path, "w", encoding="utf-8", newline="") as handle:
        for (qid, cid, _), score in zip(keys, scores):
            handle.write(f"{qid}\t{cid}\t{_fmt(score)}\n")
    print(f"wrote {len(keys)} predictions -> {out_path}")
    return 0


def _baseline_threshold(config: RunConfig, name: str, groups: list[ScoredGroup]) -> float:
    configured = getattr(config, f"{name}_threshold")
    if configured is not None:
        return configured
    threshold, _ = tune_threshold(groups)
    return threshold


def cmd_evaluate(
    config: RunConfig,
    model_path: Path,
    features_path: Path,
    report_path: Path | None,
    with_baselines: bool,
) -> int:
    model, keys, matrix, scores = _score_features(model_path, features_path)
    groups = _scored_groups(keys, scores)
    names = model.feature_names
    report = triggering_report(groups, model.threshold)
    sections = [
        f"== model (threshold {_fmt(model.threshold)}) ==",
        report.as_text(),
        report.as_kv(),
    ]
    if with_baselines:
        for name in ("bm25", "ngram", "semvec"):
            if name not in names:
                continue
            column = names.index(name)
            baseline_groups = _scored_groups(keys, matrix[:, column].tolist())
            threshold = _baseline_threshold(config, name, baseline_groups)
            baseline_report = triggering_report(baseline_groups, threshold)
            sections.append(f"== baseline {name} (threshold {_fmt(threshold)}) ==")
            sections.append(baseline_report.as_text())
            sections.append(baseline_report.as_kv())
    text = "\n".join(sections) + "\n"
    print(text, end="")
    if report_path is not None:
        with open(report_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    return 0


def cmd_build_df(config: RunConfig, out_dir: Path | None) -> int:
    targets = _df_paths(config)
    if targets is None:
        if out_dir is None:
            raise ConfigError("set [resources] df_* paths or pass --out-dir")
        targets = {level: out_dir / f"df_{level}.tsv" for level in LEVELS}
    for level, table in build_df(_train_sentences(config)).items():
        save_df_table(table, targets[level])
        print(f"df[{level}]: {len(table.df)} keys over {table.n_docs} docs -> {targets[level]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qatrigger",
        description="Answer triggering with dependency-graph alignment features.",
        epilog=(
            "Configuration precedence: --set flags > QATRIGGER_<SECTION>_<KEY> "
            "environment variables > the --config file > built-in defaults. "
            + _POSITIONAL_NOTE
        ),
    )
    parser.add_argument("--config", type=Path, default=None, help="INI config file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override one config value (repeatable)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "featurize",
        help="extract feature vectors for one corpus split",
        description="Extract per-pair feature vectors to a TSV. " + _POSITIONAL_NOTE,
    )
    p.add_argument("--split", choices=SPLITS, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(run=lambda config, args: cmd_featurize(config, args.split, args.out))

    p = sub.add_parser("train", help="fit the logistic-regression trigger model")
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--model", type=Path, required=True)
    p.set_defaults(run=lambda config, args: cmd_train(config, args.features, args.model))

    p = sub.add_parser("tune", help="pick the triggering threshold on dev features")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--features", type=Path, required=True)
    p.add_argument(
        "--update-model", action="store_true", help="write the tuned threshold back"
    )
    p.set_defaults(
        run=lambda config, args: cmd_tune(config, args.model, args.features, args.update_model)
    )

    p = sub.add_parser("predict", help="write per-pair trigger probabilities")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(
        run=lambda config, args: cmd_predict(config, args.model, args.features, args.out)
    )

    p = sub.add_parser("evaluate", help="report MAP/MRR and triggering P/R/F")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--report", type=Path, default=None, help="also write the report here")
    p.add_argument(
        "--baselines",
        action="store_true",
        help="also report each baseline feature column present in the file",
    )
    p.set_defaults(
        run=lambda config, args: cmd_evaluate(
            config, args.model, args.features, args.report, args.baselines
        )
    )

    p = sub.add_parser(
        "build-df",
        help="build word/pair/triplet document-frequency tables from the train split",
    )
    p.add_argument("--out-dir", type=Path, default=None)
    p.set_defaults(run=lambda config, args: cmd_build_df(config, args.out_dir))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, overrides=args.overrides)
        return args.run(config, args)
    except ConfigError as exc:
        print(f"error:config: {exc}", file=sys.stderr)
        return 2
    except IngestionError as exc:
        print(f"error:data: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error:io: {exc}", file=sys.stderr)
        return 4
    except QaTriggerError as exc:
        print(f"error:internal: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())

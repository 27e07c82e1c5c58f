#!/usr/bin/env python3
"""Benchmark of the qatrigger answer-triggering pipeline.

    python3 bench/run.py --workload graph-wikiqa --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

A run generates a seeded WikiQA-shaped corpus (bench/corpus_gen.py) under
bench/_work/ and checks that `featurize` still reproduces the mini corpus's
golden feature file byte for byte.  It then drives the real CLI in-process
through qatrigger.cli.main, one stage after another: build-df (graph
workloads), featurize train/dev/test, train, tune --update-model and
evaluate --baselines.  The stage sequence repeats until --seconds have
passed, and each figure is the median over the repetitions.

Times are normalised to a reference machine speed by probes interleaved
with the work (bench/speed.py); raw wall times are printed alongside.

Every output is hashed after its stage.  A stage fails when it exits
non-zero, raises, or writes bytes that differ from the first run of the same
workload and seed in this checkout.  The first repetition's outputs are also
checked against the corpus and against independent recomputations
(bench/checks.py).

--trace 0 prints the end-to-end metrics declared in BENCHMARK.json.
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics (bench/tracing.py) with the tracing overhead.  The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics.  A full record (environment, corpus statistics, hashes, every
layer) goes to bench/_work/results/.  The exit code is 1 when a correctness
gate fails, and 2 when qatrigger cannot be imported from src/ or the golden
data is missing; then no result line is printed.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__":
    # One process, one thread: keep numpy's BLAS from starting worker threads.
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    if os.environ.get("PYTHONHASHSEED") != "0":
        # A fixed string-hash seed keeps dict and set layouts, and so their
        # cost, the same from run to run.  exec replaces this process.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse
import contextlib
import dataclasses
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
import corpus_gen
from corpus_gen import CorpusSpec
from speed import REFERENCE_PROBE_S, ProbeClock
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
MINI = ROOT / "tests" / "data" / "mini"

# The CLI's default manifest, written out so that the workload stays put if
# the default changes.
GRAPH_MANIFEST = ("ged", "sim_word", "sim_pair", "sim_triplet", "rel_cov",
                  "graph_cov_ans", "graph_cov_ques", "vocab_cov")
LEXICAL_MANIFEST = ("ext_score", "bm25", "ngram", "semvec")
# Graph workloads keep WikiQA's per-question shape and split proportions
# (2,118 / 296 / 633 questions) at about 1/60 of its size.
GRAPH_QUESTIONS, GRAPH_PAIRS = (24, 4, 8), (230, 38, 77)
SUBGRAPH_M = 3  # matches m in the generated config.ini
SEMVEC_THRESHOLD = 0.70  # the CLI's default; bm25 and ngram are tuned on test
REPEATED = ("train", "tune", "evaluate")  # stages re-run to fill a run's last seconds


@dataclass(frozen=True)
class Workload:
    corpus: CorpusSpec
    manifest: tuple[str, ...]


WORKLOADS = {
    "graph-wikiqa": Workload(
        CorpusSpec(GRAPH_QUESTIONS, GRAPH_PAIRS, parses=True, overlap=0.0), GRAPH_MANIFEST),
    "graph-overlap": Workload(
        CorpusSpec(GRAPH_QUESTIONS, GRAPH_PAIRS, parses=True, overlap=0.5), GRAPH_MANIFEST),
    "lexical-wikiqa": Workload(
        CorpusSpec((2118, 296, 633), (20360, 2733, 6165), parses=False, overlap=0.0,
                   embedding_dim=100, scores=True),
        LEXICAL_MANIFEST),
}


class SetupError(Exception):
    """The checkout cannot run the benchmark at all (no result is printed)."""


def import_cli():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from qatrigger import cli
    except ImportError as exc:
        raise SetupError(f"cannot import qatrigger from {ROOT / 'src'}: {exc}") from exc
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SetupError(f"qatrigger imported from {cli.__file__}, not from src/")
    return cli


def declared() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {path}: {exc}") from exc


def environment(seed: int) -> dict:
    import numpy

    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py")
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "src_lines": src_lines,
    }


def call_cli(cli, argv: list[str]) -> tuple[int | str, str]:
    """Run one CLI invocation in-process: (exit code or exception, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception as exc:  # a crash is a failed stage, not a failed run
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def golden_gate(cli, work: Path) -> list[str]:
    config, golden = MINI / "config.ini", MINI / "golden_features_train.tsv"
    if not (config.is_file() and golden.is_file()):
        raise SetupError(f"golden data missing under {MINI}")
    out = work / "golden_check.tsv"
    code, _ = call_cli(cli, ["--config", str(config), "featurize", "--split", "train",
                             "--out", str(out)])
    if code != 0 or not out.is_file() or out.read_bytes() != golden.read_bytes():
        return [f"golden gate: featurize on {config} does not reproduce {golden.name} "
                f"(exit {code})"]
    return []


def stages(corpus: Path, workload: Workload) -> list[tuple[str, list[str], list[str]]]:
    """(stage name, CLI arguments, outputs) in pipeline order."""
    cfg, out = ["--config", str(corpus / "config.ini")], corpus / "out"
    result = []
    if workload.corpus.parses:
        result.append(("build-df", cfg + ["build-df"],
                       [f"df_{level}.tsv" for level in ("word", "pair", "triplet")]))
    for split in corpus_gen.SPLITS:
        result.append((f"featurize-{split}", cfg + ["featurize", "--split", split, "--out",
                                                    str(out / f"feats_{split}.tsv")],
                       [f"feats_{split}.tsv"]))
    model = str(out / "model.txt")
    result.append(("train", cfg + ["train", "--features", str(out / "feats_train.tsv"),
                                   "--model", model], ["model.txt"]))
    result.append(("tune", cfg + ["tune", "--model", model, "--features",
                                  str(out / "feats_dev.tsv"), "--update-model"], ["model.txt"]))
    result.append(("evaluate", cfg + ["evaluate", "--model", model, "--features",
                                      str(out / "feats_test.tsv"), "--report",
                                      str(out / "report.txt"), "--baselines"], ["report.txt"]))
    return result


def validate(stage: str, corpus: Path, workload: Workload, stats: dict) -> list[str]:
    """Check one stage's outputs against the corpus and independent recomputation."""
    out = corpus / "out"
    if stage == "build-df":
        n_docs = stats["train"]["questions"] + stats["train"]["pairs"]
        return [p for level in ("word", "pair", "triplet")
                for p in checks.check_df_table(out / f"df_{level}.tsv", n_docs)]
    if stage.startswith("featurize-"):
        split = stage.split("-", 1)[1]
        scores = checks.read_scores(corpus / "scores.tsv") if workload.corpus.scores else None
        gold = checks.read_gold(corpus / f"{split}.tsv")
        if len(gold) != stats[split]["pairs"]:
            return [f"{split}.tsv: {len(gold)} pairs, generator reported {stats[split]['pairs']}"]
        return checks.check_features(out / f"feats_{split}.tsv", workload.manifest, gold, scores)
    if stage == "train":
        return checks.check_model(out / "model.txt", workload.manifest, 0.14)
    if stage == "tune":
        return checks.check_tuned(out / "model.txt", out / "feats_dev.tsv")
    return checks.check_report(out / "report.txt", out / "model.txt", out / "feats_test.tsv",
                               {"semvec": SEMVEC_THRESHOLD})


class Run:
    """One benchmark run of one workload and seed."""

    def __init__(self, cli, name: str, seed: int, seconds: float):
        self.cli, self.name, self.seed, self.seconds = cli, name, seed, seconds
        self.clock: ProbeClock | None = None
        self.workload = WORKLOADS[name]
        self.dir = WORK / f"{name}-seed{seed}"
        self.corpus = self.dir / "corpus"
        self.reference_path = self.dir / "hashes.json"
        self.reference: dict[str, str] | None = None
        self.hashes: dict[str, str] = {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def record_op(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems

    def _compare(self, hashes: dict[str, str]) -> list[str]:
        if self.reference is None:
            return []
        return [f"{key}: sha256 differs from the first run of this seed"
                for key, value in hashes.items() if self.reference.get(key) != value]

    def prepare(self) -> bool:
        """Generate the corpus and check it against the first run of this seed."""
        shutil.rmtree(self.corpus, ignore_errors=True)
        spec = {"corpus": dataclasses.asdict(self.workload.corpus),
                "manifest": self.workload.manifest}
        child = subprocess.run(
            [sys.executable, str(BENCH / "corpus_gen.py"), "--spec", json.dumps(spec),
             "--seed", str(self.seed), "--out", str(self.corpus)],
            capture_output=True, text=True, check=False)
        print(child.stdout, end="")
        if child.returncode != 0:
            self.record_op([f"generator: exit {child.returncode}: {child.stderr.strip()}"])
            return False
        self.stats = json.loads((self.corpus / "stats.json").read_text(encoding="utf-8"))
        (self.corpus / "out").mkdir()
        if self.reference_path.is_file():
            self.reference = json.loads(self.reference_path.read_text(encoding="utf-8"))
        inputs = {f"input/{p.name}": checks.sha256(p)
                  for p in sorted(self.corpus.iterdir()) if p.is_file()}
        self.hashes.update(inputs)
        self.record_op(self._compare(inputs))
        return True

    def measure_setup(self, budget: float) -> list[tuple[float, float]]:
        """(wall, normalised) seconds of load_split + build_resources for train, repeated."""
        cli = self.cli
        config = cli.load_config(self.corpus / "config.ini", overrides=[], env={})
        times: list[tuple[float, float]] = []
        while len(times) < 3 or (sum(t[0] for t in times) < budget and len(times) < 25):
            mark = self.clock.mark()
            groups = cli.load_split(config, "train", with_parses=self.workload.corpus.parses)
            cli.build_resources(config, config.manifest, groups)
            times.append(self.clock.since(mark))
        return times

    def iteration(self, first: bool, tracer: Tracer | None, only: tuple[str, ...] = ()) -> dict:
        """Run the stage sequence once, or only the stages named in `only`.

        Returns normalised and wall seconds per stage, the wall seconds spent
        in outermost traced spans per stage, and the iteration's speed factor.
        """
        if not only:
            for old in (self.corpus / "out").iterdir():
                old.unlink()
        start = self.clock.mark()
        times, wall, roots = {}, {}, {}
        for stage, argv, outputs in stages(self.corpus, self.workload):
            if only and stage not in only:
                continue
            root_before = tracer.root_time if tracer else 0.0
            mark = self.clock.mark()
            code, _ = call_cli(self.cli, argv)
            wall[stage], times[stage] = self.clock.since(mark)
            roots[stage] = tracer.root_time - root_before if tracer else 0.0
            problems = [] if code == 0 else [f"{stage}: exit {code}"]
            hashes = {}
            for output in outputs:
                path = self.corpus / "out" / output
                hashes[f"{stage}/{output}"] = checks.sha256(path) if path.is_file() else "missing"
            problems += self._compare(hashes)
            if first and not problems:
                try:
                    problems += validate(stage, self.corpus, self.workload, self.stats)
                except (OSError, ValueError, IndexError, KeyError) as exc:
                    problems.append(f"{stage}: output unreadable: {exc}")
            if first:
                self.hashes.update(hashes)
            self.record_op(problems)
        return {"times": times, "wall": wall, "roots": roots, "factor": self.clock.factor(start)}

    def execute(self, clock: ProbeClock, tracer: Tracer | None) -> dict:
        """Measure set-up, then repeat the pipeline until the time is up.

        With a tracer, repetitions alternate untraced and traced.  Without
        one, the time left over after the last whole repetition re-runs
        train, tune and evaluate, whose outputs the repetition's features
        fully determine, so those short stages get more samples.
        """
        self.clock = clock
        start = time.perf_counter()
        if self.workload.corpus.parses:  # set-up loads the DF tables build-df writes
            call_cli(self.cli, stages(self.corpus, self.workload)[0][1])
        record = {"setup": self.measure_setup(0.1 * self.seconds), "untraced": [], "traced": [],
                  "repeats": []}
        while True:
            traced = tracer is not None and len(record["traced"]) < len(record["untraced"])
            first = not record["untraced"]
            if traced:
                tracer.reset()
                with tracer:
                    result = self.iteration(first, tracer)
                result["layers"] = tracer.layer_metrics(scale=result["factor"])
                result["table"] = tracer.table()
                record["traced"].append(result)
            else:
                record["untraced"].append(self.iteration(first, None))
            if first and self.reference is None and not self.problems:
                self.reference = dict(self.hashes)
                self.reference_path.write_text(
                    json.dumps(self.reference, indent=1, sort_keys=True), encoding="utf-8")
            if tracer is not None and not record["traced"]:
                continue
            done = record["untraced"] + record["traced"]
            per_iteration = median(sum(r["wall"].values()) for r in done)
            if time.perf_counter() - start + per_iteration > self.seconds:
                break
        if tracer is None:
            per_repeat = median(sum(r["wall"][s] for s in REPEATED) for r in record["untraced"])
            while time.perf_counter() - start + per_repeat <= self.seconds:
                record["repeats"].append(self.iteration(False, None, only=REPEATED))
        return record


def median(values) -> float:
    return statistics.median(list(values))


def _featurize_s(times: dict[str, float]) -> float:
    return sum(v for k, v in times.items() if k.startswith("featurize-"))


def end_to_end(record: dict, stats: dict, key: str = "times") -> dict[str, float]:
    """End-to-end metrics from normalised (key="times") or wall (key="wall") seconds."""
    runs = [r[key] for r in record["untraced"]]
    stage_runs = runs + [r[key] for r in record["repeats"]]
    pairs = sum(s["pairs"] for s in stats.values())
    return {
        "setup_s": median(t[0 if key == "wall" else 1] for t in record["setup"]),
        "pipeline_s": median(sum(t.values()) for t in runs),
        "featurize.pairs_per_s": median(pairs / _featurize_s(t) for t in runs),
        "train_s": median(t["train"] for t in stage_runs),
        "tune_s": median(t["tune"] for t in stage_runs),
        "evaluate_s": median(t["evaluate"] for t in stage_runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(record: dict, tracer: Tracer) -> dict[str, float]:
    traced = record["traced"]
    metrics = {name: median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    metrics["trace.overhead_ratio"] = (
        median(sum(r["times"].values()) for r in traced)
        / median(sum(r["times"].values()) for r in record["untraced"])
    )
    # Featurize time outside every traced layer: argument parsing, the CLI's
    # own dispatch, and the cost of the wrappers themselves.
    metrics["trace.featurize_residual_s"] = median(
        (_featurize_s(r["wall"]) - _featurize_s(r["roots"])) * r["factor"] for r in traced
    )
    metrics["trace.missing_layers"] = float(len(tracer.missing))
    return metrics


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def run_one(args, spec: dict) -> int:
    try:
        cli = import_cli()
        WORK.mkdir(parents=True, exist_ok=True)
        golden = golden_gate(cli, WORK)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    env = environment(args.seed)
    print(f"workload {args.workload}: {why}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    run = Run(cli, args.workload, args.seed, args.seconds)
    run.record_op(golden)
    if golden or not run.prepare():
        print("\n".join(f"FAILED {problem}" for problem in run.problems))
        print(result_line(False, run.attempted, run.failed, {}))
        return 1
    with ProbeClock() as clock:
        tracer = Tracer(SUBGRAPH_M, clock=clock.now) if args.trace else None
        try:
            record = run.execute(clock, tracer)
        except Exception:  # the program broke outside a CLI stage, e.g. in set-up
            run.record_op([traceback.format_exc()])
            print(f"FAILED {run.problems[-1]}")
            print(result_line(False, run.attempted, run.failed, {}))
            return 1
    shutil.rmtree(run.corpus, ignore_errors=True)

    declared_metrics = spec["per_layer" if args.trace else "end_to_end"]
    computed = per_layer(record, tracer) if args.trace else end_to_end(record, run.stats)
    wall = {} if args.trace else end_to_end(record, run.stats, key="wall")
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
               for m in declared_metrics}
    runs = len(record["untraced"]) + len(record["traced"])
    print(f"setup repetitions {len(record['setup'])}, pipeline repetitions {runs}, "
          f"extra {'/'.join(REPEATED)} repetitions {len(record['repeats'])}, "
          f"median probe {1000 * median(clock.samples):.3f} ms "
          f"(reference {1000 * REFERENCE_PROBE_S:.3f} ms)")
    for name, metric in metrics.items():
        raw = f"  (wall {wall[name]!r})" if name in wall and metric["unit"] != "MB" else ""
        print(f"{args.workload} {name} = {metric['value']!r} {metric['unit']}{raw}")
    print(f"{args.workload} ops_failed_ratio = {run.failed / run.attempted!r} "
          f"({run.failed}/{run.attempted} operations)")
    if tracer is not None:
        for layer in sorted(tracer.missing):
            print(f"missing layer: {layer}")
        print(f"{'layer (last traced repetition)':40} {'calls':>9} {'wall s':>10} {'self s':>10}")
        for row in record["traced"][-1]["table"]:
            print(f"{row['layer']:40} {row['calls']:9d} {row['s']:10.4f} {row['self_s']:10.4f}")
    for problem in run.problems:
        print(f"FAILED {problem}")

    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "workload": args.workload, "why": why, "env": env, "corpus": run.stats,
        "metrics": metrics, "wall_metrics": wall, "attempted": run.attempted,
        "failed": run.failed, "problems": run.problems, "hashes": run.hashes,
        "probe_s": {"median": median(clock.samples), "reference": REFERENCE_PROBE_S},
        "record": record, "missing_layers": sorted(tracer.missing) if tracer else [],
    }, indent=1), encoding="utf-8")
    correct = run.failed == 0
    print(result_line(correct, run.attempted, run.failed, metrics))
    return 0 if correct else 1


def run_all(args, spec: dict) -> int:
    """Run every workload in its own process and combine the results."""
    combined, attempted, failed, correct = {}, 0, 0, True
    for workload in spec["workloads"]:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", workload["name"], "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(child.stderr)
        if child.returncode == 2 or not lines:
            return 2
        result = json.loads(lines[-1])
        correct = correct and result["correct"] and child.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        combined.update({f"{workload['name']}/{k}": v for k, v in result["metrics"].items()})
    print(result_line(correct, attempted, failed, combined))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        spec = declared()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in names or args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())

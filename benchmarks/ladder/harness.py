"""The parent side: set up, launch reps as child processes, check, report.

One client, closed loop: a rep starts when the previous one has ended.
``measure`` produces a workload's end-to-end metrics from untraced reps;
``trace`` produces its per-layer metrics from traced passes.  The two kinds
of run are never mixed: the only number that uses both is
``obs.trace_overhead_ratio``.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

from . import check, inputs
from .spec import LADDER_DIR, WORK_DIR, WORKLOADS, Workload, per_layer_metrics
from .trace import inclusive

#: Set-up and the check against the oracle are repeated, spread over the run,
#: so that one slow import, page-cache miss or noisy spell does not read as a
#: set-up regression.
SETUP_REPEATS = 3
MIN_REPS = 3
BIG_PRECISION_SAMPLE = 100


def run_child(job: dict, mode: str, rep_dir: Path, timeout: float) -> dict:
    """One child process; returns its result, or ``{"failure": why}``."""
    rep_dir.mkdir(parents=True)
    job = dict(
        job, mode=mode, out=str(rep_dir / "patterns.jsonl"),
        log=str(rep_dir / "log.txt"), sqlite=str(rep_dir / "graphs.db"),
        answers=str(rep_dir / "answers.json"),
        post_db=str(rep_dir / "post.tve"),
    )
    job_path = rep_dir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    # A fixed hash seed keeps set iteration order, and so the work done,
    # the same from rep to rep.
    env = dict(os.environ, PYTHONHASHSEED="0")
    with open(rep_dir / "stderr.txt", "w", encoding="utf-8") as err:
        proc = subprocess.Popen(
            [sys.executable, str(LADDER_DIR / "child.py"), str(job_path)],
            stdout=subprocess.DEVNULL, stderr=err, env=env,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # The child may have workers of its own; none may outlive it.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if code is None:
        return {"failure": f"timeout after {timeout:.0f}s", "job": job}
    if code != 0:
        return {"failure": f"exit code {code}", "job": job}
    try:
        with open(str(job_path) + ".result", encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, ValueError) as exc:
        return {"failure": f"no result: {exc}", "job": job}
    result["job"] = job
    return result


def output_digest(job: dict) -> str:
    """Digest of what a rep wrote: pattern records, plus query answers."""
    digest = check.pattern_digest(job["out"])
    if job["kind"] == "query":
        with open(job["answers"], encoding="utf-8") as fh:
            digest = check.digest_lines([digest, fh.read()])
    return digest


def set_up(
    workload: Workload, seed: int, quick: bool, workdir: Path, attempt: int = 0
) -> tuple[dict, float]:
    """``(job, seconds)``: the inputs and oracle, and the time they took."""
    target = workdir / f"setup-{attempt}"
    target.mkdir(parents=True)
    start = time.perf_counter()
    job = inputs.prepare(workload, seed, quick, target)
    return job, time.perf_counter() - start


def score(job: dict, seed: int, workdir: Path) -> dict:
    """Recall and precision of one rep's output against the oracle."""
    if job["kind"] == "query":
        with open(job["answers"], encoding="utf-8") as fh:
            answers = json.load(fh)
        with open(job["oracle"], encoding="utf-8") as fh:
            oracle = json.load(fh)
        emitted, true = check.query_facts(answers, oracle)
        return {
            "recall": len(emitted & true) / len(true) if true else 1.0,
            "precision": len(emitted & true) / len(emitted) if emitted else 1.0,
            "emitted": len(emitted), "oracle": len(true),
            "stale_count": len(emitted - true), "stale": [],
        }
    records = check.read_records(job["out"])
    emitted = check.supports(records)
    if job["kind"] == "inc":
        oracle_path = workdir / "oracle.jsonl"
        inputs.mine_oracle(job["post_db"], job["params"]["support"], oracle_path)
    else:
        oracle_path = job["oracle"]
    oracle = check.supports(check.read_records(oracle_path))
    if job["kind"] == "big":
        # The planted oracle knows 3 patterns; precision needs a recount.
        truth = inputs.recount_mni_sample(
            job, records, seed, BIG_PRECISION_SAMPLE
        )
        sample = {key: emitted[key] for key in truth}
    else:
        truth, sample = oracle, emitted
    stale = check.stale(sample, truth)
    return {
        "recall": check.recall(emitted, oracle),
        "precision": check.precision(sample, truth),
        "emitted": len(emitted), "oracle": len(oracle),
        "stale_count": len(stale), "stale": stale[:5],  # a few, as evidence
    }


def _timeout(workload: Workload, quick: bool) -> float:
    return 60.0 if quick else 5 * workload.estimate_s


def _more(done: int, started: float, count: int | None,
          seconds: float | None, at_least: int) -> bool:
    """Whether to launch another child: ``count`` of them, or — the
    driver's form — until ``seconds`` have passed, never fewer than
    ``at_least``."""
    if count is not None:
        return done < count
    return done < at_least or time.perf_counter() - started < seconds


def measure(
    name: str, seed: int, *, quick: bool = False, reps: int | None = None,
    seconds: float | None = None, workdir: Path,
) -> dict:
    """End-to-end metrics of one workload from untraced reps.

    Runs ``reps`` reps, or reps until ``seconds`` of measuring have passed
    (see ``_more``).
    """
    workload = WORKLOADS[name]
    repeats = 1 if quick else SETUP_REPEATS
    job, first = set_up(workload, seed, quick, workdir)
    setups = [first]
    results, started = [], time.perf_counter()
    while _more(len(results), started, reps, seconds, MIN_REPS):
        results.append(run_child(
            job, "rep", workdir / f"rep-{len(results)}",
            _timeout(workload, quick),
        ))
        if len(setups) < repeats:
            # The other set-ups go between the reps, outside the measuring
            # time: a noisy spell that covers one is over by the next.
            again = set_up(workload, seed, quick, workdir, len(setups))[1]
            setups.append(again)
            started += again

    good = [r for r in results if "failure" not in r]
    failures = [r["failure"] for r in results if "failure" in r]
    digests = [output_digest(r["job"]) for r in good]
    for result, digest in zip(list(good), digests):
        if digest != digests[0]:
            good.remove(result)
            failures.append("pattern-record digest differs from rep 0")
    verdict, checks = None, [0.0]
    if good:
        checks = []
        for _repeat in range(repeats):
            check_start = time.perf_counter()
            verdict = score(good[0]["job"], seed, workdir)
            checks.append(time.perf_counter() - check_start)
        if verdict["precision"] < 1 and workload.kind != "inc":
            # Stale supports are IncPartMiner's documented heuristic; any
            # other workload emitting an unconfirmed pattern is broken.
            failures += ["precision < 1"] * len(good)
            good = []

    patterns = len(check.pattern_lines(good[0]["job"]["out"])) if good else 0
    for result in good:
        result.setdefault("ops", patterns)
        result["ops_per_s"] = result["ops"] / result["wall_s"]

    def series(values: list[float]) -> dict:
        if not values:
            return {"median": None, "min": None, "max": None, "reps": []}
        return {"median": median(values), "min": min(values),
                "max": max(values), "reps": values}

    def constant(value) -> dict:
        return {"median": value, "min": value, "max": value, "reps": [value]}

    end_to_end = {key: series([r[key] for r in good]) for key in
                  ("wall_s", "cpu_s", "peak_rss_mb", "ops_per_s")}
    end_to_end["recall"] = constant(verdict["recall"] if verdict else None)
    end_to_end["precision"] = constant(verdict["precision"] if verdict else None)
    end_to_end["failed_ratio"] = constant(len(failures) / len(results))
    # Untimed preparation: inputs and oracle (each repeat), plus the best
    # check against the oracle and the least a rep did before its timed
    # interval (neighbours on the host only ever add to either).
    in_child = min([r["setup_s"] for r in good]) if good else 0.0
    end_to_end["setup_s"] = series([t + min(checks) + in_child for t in setups])
    return {
        "end_to_end": end_to_end,
        "attempted": len(results),
        "failed": len(failures),
        "failures": failures,
        "digest": digests[0] if digests else None,
        "patterns": patterns,
        "check": verdict,
    }


def trace(
    name: str, seed: int, *, quick: bool = False, passes: int | None = 1,
    seconds: float | None = None, workdir: Path, facade: dict | None = None,
) -> dict:
    """Per-layer metrics of one workload from traced passes.

    ``facade`` is what the untraced reps of the same seed found —
    ``{"wall_s": median, "digest": ...}``; without it one untraced rep is
    run first.  The staged passes must reproduce that digest, and tracing
    overhead is measured against that wall time.  Numbers are medians over
    the passes; the first pass's spans are kept.
    """
    workload = WORKLOADS[name]
    job, _setup = set_up(workload, seed, quick, workdir)
    timeout = _timeout(workload, quick)
    failures = []
    # The untraced reps below count against ``seconds`` too: a traced run
    # takes no longer than an untraced one.
    started = time.perf_counter()
    if facade is None:
        rep = run_child(job, "rep", workdir / "facade", timeout)
        if "failure" in rep:
            failures.append(rep["failure"])
        else:
            facade = {"wall_s": rep["wall_s"], "digest": output_digest(rep["job"])}
    resident = None
    if "graph_cache" in job["params"] and not failures:
        # The same input held in memory, right after its out-of-core twin.
        resident = run_child(job, "resident", workdir / "resident", timeout)
        if "failure" in resident:
            failures.append(f"resident run: {resident['failure']}")
    traced = []
    while not failures and _more(len(traced), started, passes, seconds, 1):
        result = run_child(
            job, "traced", workdir / f"traced-{len(traced)}", 2 * timeout
        )
        if "failure" in result:
            failures.append(result["failure"])
            break
        traced.append(result)

    names = [m["name"] for m in per_layer_metrics()]
    metrics = dict.fromkeys(names)
    reasons: dict[str, str] = {}
    degraded = None
    spans: list[dict] = []
    if traced and not failures:
        first = traced[0]["traced"]
        degraded, spans = first["degraded"], first["spans"]
        if degraded is None and output_digest(traced[0]["job"]) != facade["digest"]:
            failures.append("staged digest differs from the façade's")
        reasons = dict(first["reasons"])
        for metric in names:
            values = [t["traced"]["metrics"].get(metric) for t in traced]
            values = [v for v in values if v is not None]
            if values:
                metrics[metric] = median(values)
        if degraded is None:
            metrics["obs.trace_overhead_ratio"] = (
                median([t["wall_s"] for t in traced]) / facade["wall_s"] - 1
            )
        if resident is not None:
            metrics["storage.ooc_slowdown"] = facade["wall_s"] / resident["wall_s"]
    why_not = degraded or (
        "traced pass failed" if failures
        else "its layer does not run on this workload"
    )
    for metric in names:
        if metrics[metric] is None:
            reasons.setdefault(metric, why_not)
    return {
        "per_layer": metrics,
        "null_reasons": reasons,
        "degraded": degraded,
        "shares": layer_shares(spans),
        "spans": spans,
        "attempted": max(1, len(traced)),
        "failed": len(failures),
        "failures": failures,
    }


#: The stage spans whose inclusive time is a "share of the run".
STAGES = (
    "obs.import", "storage.import", "graph.io.parse", "biggraph.extract",
    "partition.dbpartition", "mining.unit_mine", "runtime.pool",
    "core.merge_join", "biggraph.mni_verify", "mining.store.dump",
    "core.inc.initial_mine", "core.inc.apply", "obs.reference",
    "serve.index_build",
    "serve.relocate", "serve.contains", "serve.match", "serve.metadata",
)


def layer_shares(spans: list[dict]) -> dict[str, float]:
    """Each stage's inclusive share of the traced pass's root span."""
    if not spans or not spans[0]["dur_s"]:
        return {}
    total = spans[0]["dur_s"]
    shares = {
        stage: inclusive(spans, stage) / total
        for stage in STAGES
        if any(span["name"] == stage for span in spans)
    }
    shares["other"] = 1.0 - sum(shares.values())
    return shares


class Workspace:
    """A scratch directory under the ladder's own ``.work``, removed on exit."""

    def __enter__(self) -> Path:
        WORK_DIR.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(dir=WORK_DIR))
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)

"""Pipeline benchmark: time every Kremlin layer from outside.

Runs a workload (``workloads.py``; every workload when none is named) and
prints every metric by name with its unit, then one JSON object per
workload, the last line of standard output for a single workload::

    {"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json
(``setup_s``, ``pass_s``, ``peak_rss_mb``); with ``--trace 1`` they are
the per-layer ones, from passes that run each layer under a span.

A run starts three worker processes, one after another, and gives each a
third of ``--seconds``. Each worker imports the pipeline, sets its
workload up, runs one untimed pass that fixes the reference outputs, then
times passes (every input once per pass, in an order drawn from
``--seed``) until its time is up. ``setup_s`` is the median of the three
set-ups; ``pass_s`` is the sum over inputs of each input's fastest op
time over all the run's passes. Any failed check makes ``correct`` false
and the exit status 1.

Usage::

    python3 benchmarks/pipeline/run.py --workload first-run --seed 0
    python3 benchmarks/pipeline/run.py --out a.json     # every workload
    python3 benchmarks/pipeline/run.py compare --base a*.json --new b*.json
    python3 benchmarks/pipeline/run.py reference        # rewrite expected.json
"""

import time

#: ``setup_s`` is measured from here, before the pipeline is imported
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED_PATH = os.path.join(HERE, "expected.json")
#: scratch space for worker caches, inside the checkout
BUILD_DIR = os.path.join(ROOT, ".bench_build", "pipeline")

#: worker processes per run; setup_s is their median
WORKERS = 3
#: the modules of ``src/repro`` a staged span is charged to (a span named
#: ``<layer>.<op>``), in pipeline order
LAYERS = (
    "frontend",
    "lowering",
    "ir",
    "instrument",
    "analysis",
    "interp",
    "kremlib",
    "hcpa",
    "planner",
    "exec_model",
)
#: a whole run must end well inside the 180 s a run is allowed
RUN_DEADLINE_S = 170.0
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if not 2 <= len(names) <= 8:
        raise ValueError(f"{len(names)} workloads; need 2 to 8")
    if len(spec["end_to_end"]) > 16 or len(spec["per_layer"]) > 128:
        raise ValueError("too many metrics in BENCHMARK.json")
    for name in names + metrics:
        if not NAME_RE.fullmatch(name):
            raise ValueError(f"invalid name {name!r} in BENCHMARK.json")
    if len(set(names)) != len(names) or len(set(metrics)) != len(metrics):
        raise ValueError("duplicate name in BENCHMARK.json")
    return spec


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def high_percentile(values: list[float]) -> tuple[float, float] | None:
    """(p, value) for the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(ordered) * (1.0 - p / 100.0) >= 10:
            index = min(len(ordered) - 1, math.ceil(p / 100.0 * len(ordered)))
            return p, ordered[index]
    return None


def geomean(values: list[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ----------------------------------------------------------------------
# Worker process: set up, warm up, time passes
# ----------------------------------------------------------------------


def worker(name: str, seed: int, index: int, seconds: float, trace: bool,
           work_dir: str) -> dict:
    sys.path.insert(0, SRC)
    from repro.interp import diskcache
    from repro.obs.trace import Tracer

    from workloads import WORKLOADS, PassRecord

    # No codegen unit may land in the user's cache directory.
    diskcache.configure(directory=os.path.join(work_dir, "codegen"))
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        expected = json.load(handle)
    workload = WORKLOADS[name](expected, work_dir)
    rng = random.Random(f"{name}:{seed}:{index}")
    keys = workload.inputs()
    out: dict = {"attempted": 0, "failed": 0, "failures": []}

    def fail(messages: list[str]) -> None:
        out["failed"] += 1
        out["failures"].extend(messages[: 20 - len(out["failures"])])

    def one_pass(staged: bool, samples: dict, spans: dict | None = None):
        order = list(keys)
        rng.shuffle(order)
        tracer = Tracer() if staged else None
        record = PassRecord() if staged else None
        workload.begin_pass()
        try:
            for key in order:
                started = time.perf_counter()
                try:
                    if staged:
                        result = workload.staged(key, tracer, record)
                    else:
                        result = workload.run(key)
                except Exception as error:  # counted, never raised mid-run
                    fail([f"{key}: {type(error).__name__}: {error}"])
                    continue
                samples[key].append(time.perf_counter() - started)
                try:
                    failures = workload.verify(key, result)
                    if staged:
                        workload.extras(key, result, record)
                except Exception as error:
                    failures = [f"{key}: {type(error).__name__}: {error}"]
                if failures:
                    fail(failures)
        finally:
            workload.end_pass()
        if staged:
            for span in tracer.finished_spans():
                spans[span.name] = spans.get(span.name, 0.0) + span.duration
        return record

    workload.setup()
    one_pass(False, {key: [] for key in keys})  # warm-up; fixes references
    if out["failed"]:
        out["fatal"] = "set-up pass failed: " + "; ".join(out["failures"])
        return out
    out["setup_s"] = time.perf_counter() - _STARTED

    samples = {key: [] for key in keys}
    traced = {key: [] for key in keys}
    spans: dict[str, float] = {}
    records = []
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes < (2 if trace else 1) or time.perf_counter() < deadline:
        staged = trace and passes % 2 == 1
        record = one_pass(staged, traced if staged else samples, spans)
        out["attempted"] += len(keys)
        if record is not None:
            records.append(record)
        passes += 1

    out["samples"] = samples
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    if trace:
        out["traced"] = traced
        out["spans"] = spans
        out["counts"] = [record.counts for record in records]
        out["overheads"] = [v for r in records for v in r.overheads]
        out["compression"] = [v for r in records for v in r.compression]
    out["digests"] = workload.reference
    return out


def worker_main(argv: list[str]) -> int:
    name, seed, index, seconds, trace, work_dir = argv
    try:
        out = worker(
            name, int(seed), int(index), float(seconds), trace == "1", work_dir
        )
    except Exception as error:  # report, so the parent marks the run failed
        out = {"fatal": f"{type(error).__name__}: {error}"}
    print(json.dumps(out))
    return 0


# ----------------------------------------------------------------------
# Parent: run the workers, aggregate, print
# ----------------------------------------------------------------------


def _pool(samples_per_worker: list[dict]) -> dict[str, list[float]]:
    """Op times per input, over every worker of the run."""
    pooled: dict[str, list[float]] = {}
    for samples in samples_per_worker:
        for key, values in samples.items():
            pooled.setdefault(key, []).extend(values)
    return pooled


def best_pass(pooled: dict[str, list[float]]) -> float:
    """Seconds per pass: each input's fastest op, summed over inputs.

    Best-of-N, not the median: on a shared host the CPU runs at two
    speeds, switching every few seconds, so an input's median flips
    between them from run to run while its minimum does not (README.md
    has the measurements).
    """
    return sum(min(values) for values in pooled.values() if values)


def end_to_end(results: list[dict]) -> tuple[dict, dict]:
    pooled = _pool([r["samples"] for r in results])
    ops = [v for values in pooled.values() for v in values]
    detail = {
        "setup_s": [r["setup_s"] for r in results],
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
        "ops": {"count": len(ops), "median_s": statistics.median(ops)},
        "inputs": {
            key: dict(zip(("q1", "median", "q3"), quartiles(values)),
                      best=min(values), n=len(values))
            for key, values in sorted(pooled.items())
        },
    }
    high = high_percentile(ops)
    if high is not None:
        detail["ops"]["p_high"], detail["ops"]["p_high_s"] = high
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "pass_s": best_pass(pooled),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    return metrics, detail


def per_layer(results: list[dict]) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics from the workers' staged passes."""
    failures = []
    counts = [c for r in results for c in r["counts"]]
    if any(c != counts[0] for c in counts):
        failures.append("a count differs between staged passes")
    n_passes = len(counts)
    spans: dict[str, float] = {}
    for r in results:
        for name, seconds in r["spans"].items():
            spans[name] = spans.get(name, 0.0) + seconds
    traced = _pool([r["traced"] for r in results])
    traced_s = sum(sum(v) for v in traced.values())
    pass_traced = best_pass(traced)
    pass_untraced = best_pass(_pool([r["samples"] for r in results]))
    layer_s = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in spans.items():
        layer_s[name.split(".")[0]] += seconds
    metrics = {f"{layer}.share": s / traced_s for layer, s in layer_s.items()}
    metrics.update({name: value for name, value in counts[0].items()})
    parse_s = spans.get("frontend.parse", 0.0)
    run_s = spans.get("kremlib.run", 0.0)
    hits = counts[0]["interp.disk_hits"]
    lookups = hits + counts[0]["interp.disk_misses"]
    metrics.update(
        {
            "frontend.tokens_per_s": (
                counts[0]["frontend.tokens"] * n_passes / parse_s
                if parse_s else 0.0
            ),
            "interp.disk_hit_ratio": hits / lookups if lookups else 0.0,
            "kremlib.minstr_per_s": (
                counts[0]["kremlib.instructions"] * n_passes / run_s / 1e6
                if run_s else 0.0
            ),
            "kremlib.overhead_x": geomean(
                [v for r in results for v in r["overheads"]]
            ),
            "hcpa.compression_ratio": geomean(
                [v for r in results for v in r["compression"]]
            ),
            "trace.pass_s": pass_traced,
            "trace.attributed_share": sum(spans.values()) / traced_s,
            "trace.overhead_share": (pass_traced - pass_untraced) / pass_untraced,
        }
    )
    detail = {
        "staged_passes": n_passes,
        "span_s_per_pass": {
            name: seconds / n_passes for name, seconds in sorted(spans.items())
        },
    }
    return metrics, detail, failures


def run_workload(spec: dict, name: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    started = time.monotonic()
    results, failures = [], []
    for index in range(WORKERS):
        os.makedirs(BUILD_DIR, exist_ok=True)
        work_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=BUILD_DIR)
        command = [
            sys.executable, os.path.abspath(__file__), "_worker", name,
            str(seed), str(index), repr(seconds / WORKERS),
            "1" if trace else "0", work_dir,
        ]
        remaining = RUN_DEADLINE_S - (time.monotonic() - started)
        try:
            proc = subprocess.run(
                command, capture_output=True, text=True, cwd=ROOT,
                timeout=max(remaining, 1.0),
            )
        except subprocess.TimeoutExpired:
            failures.append(f"worker {index} ran past the run deadline")
            break
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            failures.append(
                f"worker {index} exited {proc.returncode} without a result: "
                f"{proc.stderr.strip()[-2000:]}"
            )
            break
        if "fatal" in result:
            failures.append(f"worker {index}: {result['fatal']}")
            break
        results.append(result)
        failures.extend(result["failures"])

    record = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "correct": False, "attempted": 0, "failed": 0,
        "metrics": {}, "detail": {},
    }
    if len(results) < WORKERS or failures:
        record["detail"]["failures"] = failures
        record["failed"] = max(1, sum(r["failed"] for r in results))
        record["attempted"] = max(1, sum(r["attempted"] for r in results))
        return record

    digests = [r["digests"] for r in results]
    mismatched = [k for k in digests[0] if any(d[k] != digests[0][k]
                                              for d in digests)]
    if mismatched:
        failures.append(f"outputs differ between workers: {mismatched}")
    record["attempted"] = sum(r["attempted"] for r in results)
    record["failed"] = sum(r["failed"] for r in results) + len(mismatched)
    if trace:
        values, detail, layer_failures = per_layer(results)
        failures.extend(layer_failures)
        record["failed"] += len(layer_failures)
        wanted = spec["per_layer"]
    else:
        values, detail = end_to_end(results)
        wanted = spec["end_to_end"]
    if sorted(values) != sorted(m["name"] for m in wanted):
        raise RuntimeError(
            f"emitted metrics {sorted(values)} do not match BENCHMARK.json"
        )
    record["metrics"] = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    detail["failures"] = failures
    record["detail"] = detail
    record["correct"] = record["failed"] == 0
    return record


def bench_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Time the Kremlin pipeline, layer by layer."
    )
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the order of inputs in each pass")
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = report per-layer metrics from staged passes")
    parser.add_argument("--out", help="append the full run records to FILE "
                        "(a JSON list; input of `compare`)")
    options = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no Kremlin sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    names = options.workload or known
    for name in names:
        if name not in known:
            parser.error(f"unknown workload {name!r}; choose from {known}")
    seconds = options.seconds or spec["run_seconds"]

    records = []
    for name in names:
        record = run_workload(spec, name, options.seed, seconds,
                              bool(options.trace))
        records.append(record)
        for metric, entry in record["metrics"].items():
            print(f"{name:12} {metric:28} {entry['value']:14.6g} "
                  f"{entry['unit']}")
        for failure in record["detail"].get("failures", []):
            print(f"{name}: FAILED {failure}", file=sys.stderr)

    if options.out:
        previous = []
        if os.path.exists(options.out):
            with open(options.out, encoding="utf-8") as handle:
                previous = json.load(handle)
        with open(options.out, "w", encoding="utf-8") as handle:
            json.dump(previous + records, handle, indent=1)
            handle.write("\n")
    for record in records:
        print(json.dumps({
            key: record[key]
            for key in ("correct", "attempted", "failed", "metrics")
        }))
    return 0 if all(record["correct"] for record in records) else 1


# ----------------------------------------------------------------------
# compare: the no-regression and gain rules over two sets of runs
# ----------------------------------------------------------------------


def _load_records(paths: list[str], trace: int) -> dict[str, list[dict]]:
    """Correct run records with the given ``--trace``, by workload."""
    by_workload: dict[str, list[dict]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            for record in json.load(handle):
                if record["trace"] == trace and record["correct"]:
                    by_workload.setdefault(record["workload"], []).append(
                        record
                    )
    return by_workload


def _summary(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"runs": len(values), "q1": q1, "median": median, "q3": q3,
            "spread": (q3 - q1) / median}


def _win_rate(base: list[dict], new: list[dict], metric: str,
              lower: bool) -> tuple[int, int]:
    """(wins, pairs): runs paired by seed, else in order."""
    base_by_seed = {r["seed"]: r for r in base}
    pairs = [(base_by_seed[r["seed"]], r) for r in new
             if r["seed"] in base_by_seed]
    if not pairs:
        pairs = list(zip(base, new))
    wins = 0
    for a, b in pairs:
        va = a["metrics"][metric]["value"]
        vb = b["metrics"][metric]["value"]
        if (vb < va) if lower else (vb > va):
            wins += 1
    return wins, len(pairs)


def verdict(base: list[dict], new: list[dict], metric: dict) -> tuple:
    """(verdict, delta) for one workload x end-to-end metric."""
    name, bound = metric["name"], metric["bound"]
    lower = metric["better"] == "lower"
    a = [r["metrics"][name]["value"] for r in base]
    b = [r["metrics"][name]["value"] for r in new]
    sa, sb = _summary(a), _summary(b)
    sign = 1.0 if lower else -1.0
    delta = sign * (sb["median"] - sa["median"]) / sa["median"]
    all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
    if max(sa["spread"], sb["spread"]) > bound:
        return ("improved" if all_better else "unresolved"), delta
    if delta > bound:
        return "regressed", delta
    wins, pairs = _win_rate(base, new, name, lower)
    gain = sign * (sa["median"] - sb["median"]) > sa["q3"] - sa["q1"]
    if gain and pairs and wins >= 0.9 * pairs:
        return "improved", delta
    return "ok", delta


def compare_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py compare",
        description="Summarize run records, or compare two sets of them.",
    )
    parser.add_argument("--base", nargs="+", required=True,
                        help="--out files of the parent (or the only side)")
    parser.add_argument("--new", nargs="+", help="--out files of the change")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD:METRIC",
                        help="report the pair win-rate for a claimed gain")
    parser.add_argument("--write", help="write the summary as JSON to FILE")
    options = parser.parse_args(argv)

    spec = load_spec()
    base = _load_records(options.base, trace=0)
    new = _load_records(options.new, trace=0) if options.new else {}
    summary: dict = {"workloads": {}, "per_layer": {}}
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in base:
            continue
        rows = summary["workloads"][workload] = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row = {"unit": metric["unit"], "bound": bound,
                   "base": _summary([r["metrics"][name]["value"]
                                     for r in base[workload]])}
            line = (f"{workload:12} {name:12} base "
                    f"{row['base']['median']:.6g} "
                    f"[{row['base']['q1']:.6g}, {row['base']['q3']:.6g}] "
                    f"spread {row['base']['spread']:.1%}")
            if workload in new:
                row["new"] = _summary([r["metrics"][name]["value"]
                                       for r in new[workload]])
                row["verdict"], row["delta"] = verdict(
                    base[workload], new[workload], metric)
                line += (f" | new {row['new']['median']:.6g} "
                         f"[{row['new']['q1']:.6g}, {row['new']['q3']:.6g}] "
                         f"spread {row['new']['spread']:.1%} | delta "
                         f"{row['delta']:+.1%} (bound {bound:.0%}) "
                         f"{row['verdict']}")
                if row["verdict"] in ("regressed", "unresolved"):
                    status = 1
            else:
                steady = row["base"]["spread"] <= bound / 3
                line += (f" (bound {bound:.0%}: "
                         f"{'steady' if steady else 'UNSTEADY'})")
            print(line)
            rows[name] = row
    for claim in options.claim:
        workload, name = claim.split(":")
        metric = next(m for m in spec["end_to_end"] if m["name"] == name)
        wins, pairs = _win_rate(base[workload], new.get(workload, []), name,
                                metric["better"] == "lower")
        met = summary["workloads"][workload][name].get("verdict") == "improved"
        print(f"claim {claim}: change wins {wins}/{pairs} pairs; "
              f"{'met' if met else 'not met'}")
    # Per-layer medians, for the ledger: no bound applies to them.
    for workload, records in _load_records(options.base, trace=1).items():
        summary["per_layer"][workload] = {
            metric["name"]: statistics.median(
                r["metrics"][metric["name"]]["value"] for r in records
            )
            for metric in spec["per_layer"]
        }
    if options.write:
        with open(options.write, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return status


def reference_main(argv: list[str]) -> int:
    sys.path.insert(0, SRC)
    from workloads import reference_results

    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference_results(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["_worker"]:
        return worker_main(argv[1:])
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    if argv[:1] == ["reference"]:
        return reference_main(argv[1:])
    return bench_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

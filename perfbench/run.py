"""Benchmark of the multitwist CLI, driven in-process through cli.run(argv).

    python3 perfbench/run.py --workload {search,certify,cli,paper} \
        --seed N --seconds S --trace {0,1}

One closed-loop client: each request starts when the previous one has
returned.  A run repeats whole passes over the seeded request list until
--seconds of pass time have elapsed (at least one pass), then checks every
captured output against oracle.py.  With --trace 0 it reports the
end-to-end metrics, with times divided by the machine-speed factor of
speed.py (see README.md); with --trace 1 it spends half of --seconds on
untraced passes and half on traced ones, reports the per-layer metrics
and writes the spans to perfbench/out/.  The last stdout line is the
JSON result; a run whose outputs fail the oracle, other than on a listed
known defect, then exits 1.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# No bytecode is written for the package, so every set-up spawn compiles
# it from source whatever the caller's environment (and nothing lands in
# the checkout's src/).
sys.dont_write_bytecode = True

import workloads  # noqa: E402
from speed import NEAR, SpeedProbe  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SPAWNS = 10
# A reference spawn imports only mpmath, the package's one dependency.
# setup_s reads as the time on a machine where that takes REFERENCE_SPAWN_S.
REFERENCE_SPAWN_S = 0.075
# Workloads whose kernel samples are taken during requests as well, because
# their requests last seconds: paper's one request of 20-30 s leaves no
# gap between requests, and a search request takes up to 2 s.
SAMPLED_DURING = ("search", "paper")


def load_cli():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "multitwist" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    from multitwist import cli
    if Path(cli.__file__).resolve().parent != SRC / "multitwist":
        raise SystemExit(f"perfbench: imported {cli.__file__}, not {SRC}")
    return cli


def measure_setup() -> tuple[float, float]:
    """Time for a fresh interpreter to import multitwist.cli: (scaled, raw).

    Each timed spawn follows a reference spawn.  Scaled is the median ratio
    of the two, times REFERENCE_SPAWN_S; raw is the median spawn time.  The
    first pair, untimed, warms the file cache.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")

    def spawn(module: str) -> float:
        start = perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}"], env=env,
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        return perf_counter() - start

    ratios, raw = [], []
    for i in range(SETUP_SPAWNS + 1):
        reference = spawn("mpmath")
        seconds = spawn("multitwist.cli")
        if i:
            ratios.append(seconds / reference)
            raw.append(seconds)
    return (statistics.median(ratios) * REFERENCE_SPAWN_S,
            statistics.median(raw))


def call(cli, argv, tracer=None):
    """One request with stdout/stderr captured: (seconds, code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    index = tracer.begin("cli") if tracer else None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(argv))
    except Exception:  # a traceback is a failed request, not a dead run
        code = "traceback"
        err.write(traceback.format_exc())
    finally:
        if tracer:
            tracer.end(index)
    return perf_counter() - start, code, out.getvalue(), err.getvalue()


@dataclass
class Runs:
    walls: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    work: int = 0
    attempted: int = 0
    failed: int = 0
    known: dict = field(default_factory=dict)
    unexpected: list = field(default_factory=list)
    first_outputs: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)


def run_passes(cli, requests, seconds: float, tracer=None,
               probe=None) -> Runs:
    """Whole passes until their request time reaches seconds (at least one).

    A pass's wall time is the sum of its request latencies, so the speed
    probe's kernel runs between requests without being counted.
    """
    runs = Runs()
    while not runs.walls or sum(runs.walls) < seconds:
        records = []
        for i, req in enumerate(requests):
            if probe:
                probe.between_requests()
            if tracer:
                tracer.request = len(runs.walls) * len(requests) + i
            runs.starts.append(perf_counter())
            records.append(call(cli, req.argv, tracer))
        runs.walls.append(sum(r[0] for r in records))
        if not runs.first_outputs:
            runs.first_outputs = [workloads.timing_free(out)
                                  for _, _, out, _ in records]
        for req, (latency, code, out, err) in zip(requests, records):
            runs.latencies.append(latency)
            runs.work += req.work
            judge(runs, req, code, out, err)
    return runs


def judge(runs: Runs, req, code, out: str, err: str) -> None:
    key = (req.argv, code, out)  # a repeated output is judged once
    if key not in runs.verdicts:
        try:
            runs.verdicts[key] = req.check(code, out)
        except Exception as exc:  # output the oracle could not even parse
            runs.verdicts[key] = [f"unreadable output "
                                  f"({type(exc).__name__}: {exc})"]
    fails = runs.verdicts[key]
    runs.attempted += req.attempted
    runs.failed += min(len(fails), req.attempted)
    if not fails:
        return
    if req.known_defect:
        key = (req.argv, fails[0], req.known_defect)
        runs.known[key] = runs.known.get(key, 0) + 1
    else:
        runs.unexpected.append((req.argv, fails, err.strip()[-300:]))


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_meta(args) -> dict:
    import mpmath
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "commit": git_commit(), "python": sys.version,
            "cpu_count": os.cpu_count(), "mpmath": mpmath.__version__}


def percentile_90(values) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(setup_s: float, latencies: list, per_pass: int,
               work: int) -> dict:
    """Every end-to-end metric from set-up time and request seconds."""
    walls = [sum(latencies[i:i + per_pass])
             for i in range(0, len(latencies), per_pass)]
    ms = [x * 1000 for x in latencies]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "ops_per_s": (work / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (percentile_90(ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def layer_unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def report(runs_list, requests, metrics: dict, meta: dict) -> dict:
    attempted = sum(r.attempted for r in runs_list)
    failed = sum(r.failed for r in runs_list)
    unexpected = [u for r in runs_list for u in r.unexpected]
    known: dict = {}
    for r in runs_list:
        for key, n in r.known.items():
            known[key] = known.get(key, 0) + n
    passes = sum(len(r.walls) for r in runs_list)
    print(f"perfbench workload={meta['workload']} seed={meta['seed']} "
          f"trace={meta['trace']}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"requests per pass {len(requests)}, passes {passes}, "
          f"latency samples {sum(len(r.latencies) for r in runs_list)}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(f"error_rate {failed / attempted!r} ({failed}/{attempted})")
    for (argv, fail, note), n in sorted(known.items()):
        print(f"known defect x{n}: argv {list(argv)}: {fail} ({note})")
    for argv, fails, err in unexpected[:20]:
        print(f"FAILED argv {list(argv)}: {'; '.join(fails)[:300]} "
              f"stderr: {err!r}")
    return {"correct": not unexpected, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    meta = run_meta(args)
    requests = workloads.build(args.workload, args.seed)
    if not args.trace:
        setup_s, setup_raw = measure_setup()
        probe = SpeedProbe()
        probe.sample(NEAR)
        if args.workload in SAMPLED_DURING:
            with probe.during_requests():
                runs = run_passes(cli, requests, args.seconds)
        else:
            runs = run_passes(cli, requests, args.seconds, probe=probe)
        probe.sample(NEAR)
        stretches = [list(probe.stretches(s, s + t))
                     for s, t in zip(runs.starts, runs.latencies)]
        latencies = [sum(t / f for t, f in parts) for parts in stretches]
        unscaled = [sum(t for t, _ in parts) for parts in stretches]
        meta["speed_factor"] = statistics.median(probe.factors)
        meta["unscaled"] = {k: v for k, (v, _) in end_to_end(
            setup_raw, unscaled, len(requests), runs.work).items()}
        metrics = end_to_end(setup_s, latencies, len(requests), runs.work)
        result = report([runs], requests, metrics, meta)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    from tracing import Tracer, install, layer_metrics
    plain = run_passes(cli, requests, args.seconds / 2)
    tracer = Tracer()
    restore = install(tracer)
    try:
        traced = run_passes(cli, requests, args.seconds / 2, tracer)
    finally:
        restore()
    if traced.first_outputs != plain.first_outputs:
        traced.unexpected.append((("<all>",), ["traced stdout differs from "
                                               "untraced stdout"], ""))
    overhead = (statistics.median(traced.walls)
                / statistics.median(plain.walls) - 1)
    layers = layer_metrics(tracer, len(traced.walls), overhead)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans_{args.workload}_seed{args.seed}.jsonl.gz"
    tracer.write(spans_path, dict(meta, traced_passes=len(traced.walls)))
    result = report([plain, traced], requests,
                    {k: (v, layer_unit(k)) for k, v in layers.items()}, meta)
    print(f"spans: {len(tracer.spans)} written to "
          f"{spans_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""latcert benchmark: cubic search, quartic field filter, store-and-replay.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cubic-search --seed 1 --seconds 10 --trace 0

Every timed repetition runs in a fresh interpreter (`worker.py`), so the
module caches are cold, as for a CLI user. `--trace 0` repeats the workload
until `--seconds` have passed (at least once) and reports the end-to-end
metrics; `--trace 1` runs it once untraced and once traced and reports the
per-layer metrics. Report lines come first; the last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. The exit code is 0 only if every output check passed.

Scratch files (the corpus cache, stores, spans, results) live under
`.bench_build/perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))

from tracing import per_layer_names, unit_of  # noqa: E402
from worker import WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Everything the report prints per workload; END_TO_END is the gated subset.
REPORT = {
    "cubic-search": ("setup_s", "wall_s", "polys_per_s", "certs_per_s", "peak_rss_mb", "fail_ratio"),
    "quartic-filter": ("setup_s", "wall_s", "polys_per_s", "peak_rss_mb", "fail_ratio"),
    "store-verify": (
        "setup_s", "wall_s", "write_p50_ms", "write_p95_ms",
        "verify_p50_ms", "verify_p95_ms", "peak_rss_mb", "fail_ratio",
    ),
}
REPORT_UNITS = {
    **END_TO_END,
    "polys_per_s": "1/s",
    "certs_per_s": "1/s",
    "write_p50_ms": "ms",
    "write_p95_ms": "ms",
    "verify_p50_ms": "ms",
    "verify_p95_ms": "ms",
    "fail_ratio": "ratio",
}
SEEDED = {"store-verify"}  # the searches are fixed enumerations
SETUP_SAMPLES = 5  # set-up-only interpreters per run, besides the timed ones
CHILD_TIMEOUT_S = 170
RUN_BUDGET_S = 150  # no repetition starts that would end past this


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def source_digest() -> str:
    """sha256 over latcert's source tree, naming the program version in a
    checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


class Runner:
    def __init__(self, workload: str, seed: int, size: str):
        self.workload, self.seed, self.size = workload, seed, size
        # No bytecode is written, so every repetition imports latcert from
        # source the same way and nothing is written outside the checkout.
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
        self.corpus = None

    def spawn(self, mode: str, trace: int = 0, **extra) -> dict:
        """Run worker.py once, wait for it, and return its result."""
        out = WORK / "tmp" / f"{os.getpid()}.json"  # spawns run one at a time
        args = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--size", self.size, "--mode", mode,
            "--trace", str(trace), "--seed", str(self.seed), "--out", str(out),
        ]
        if self.corpus is not None:
            args += ["--corpus", str(self.corpus)]
        for key, value in extra.items():
            args += [f"--{key}", str(value)]
        args += ["--spawned-at", repr(perf_counter())]
        proc = subprocess.run(
            args, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0 or not out.is_file():
            raise BenchError(f"worker ({mode}) exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
        result = json.loads(out.read_text())
        out.unlink()
        return result

    def prepare(self) -> list[str]:
        """Build the store-verify corpus in a process of its own, unless this
        program version already has one; return the problems found."""
        if self.workload != "store-verify":
            return []
        key = hashlib.sha256(
            (source_digest() + self.size).encode() + (HERE / "worker.py").read_bytes()
        ).hexdigest()[:16]
        self.corpus = WORK / f"corpus-{self.size}-{key}.json"
        if self.corpus.is_file():
            return []
        return self.spawn("corpus")["problems"]

    def timed(self, trace: int = 0) -> dict:
        store = WORK / "stores" / str(os.getpid())
        shutil.rmtree(store, ignore_errors=True)
        extra = {"store": store} if self.workload == "store-verify" else {}
        if trace:
            (WORK / "spans").mkdir(parents=True, exist_ok=True)
            extra["spans"] = WORK / "spans" / f"{self.workload}-seed{self.seed}.spans"
        try:
            return self.spawn("timed", trace, **extra)
        finally:
            shutil.rmtree(store, ignore_errors=True)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, q in 1..99, by statistics.quantiles."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(workload: str, setups: list[float], reps: list[dict]) -> dict:
    """Every report metric of REPORT[workload] as (value, unit, samples)."""
    out = {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_s": (statistics.median(r["wall_s"] for r in reps), len(reps)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), len(reps)),
        "fail_ratio": (sum(r["failed"] for r in reps) / sum(r["attempted"] for r in reps), len(reps)),
    }
    for name in ("polys_per_s", "certs_per_s"):
        if name in reps[0]:
            out[name] = (statistics.median(r[name] for r in reps), len(reps))
    for op in ("write", "verify"):
        if f"{op}_ms" in reps[0]:
            samples = [ms for r in reps for ms in r[f"{op}_ms"]]
            out[f"{op}_p50_ms"] = (statistics.median(samples), len(samples))
            out[f"{op}_p95_ms"] = (percentile(samples, 95), len(samples))
    return {name: out[name] + (REPORT_UNITS[name],) for name in REPORT[workload]}


def environment(workload: str, reps: list[dict]) -> dict:
    return {
        **reps[0]["versions"],
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "cache_state": {workload: "cold"},
        "workload_uses_seed": workload in SEEDED,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: a tiny input of the same workload, for the self-test")
    args = ap.parse_args(argv)

    if not (SRC / "latcert" / "__init__.py").is_file():
        print(f"no latcert sources under {SRC}; nothing to benchmark", file=sys.stderr)
        return 2
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, args.seed, args.size)
    try:
        problems = runner.prepare()
        if problems:
            reps = []
        elif args.trace:
            reps = [runner.timed(trace=0), runner.timed(trace=1)]
        else:
            setups = [runner.spawn("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
            reps = []
            started = perf_counter()
            while True:
                t0 = perf_counter()
                reps.append(runner.timed())
                elapsed, last = perf_counter() - started, perf_counter() - t0
                if elapsed >= args.seconds or elapsed + last > RUN_BUDGET_S:
                    break
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for rep in reps:
        problems += rep["problems"]
    print(f"workload {args.workload}: closed loop, one caller, cold caches; "
          f"seed {args.seed} {'shuffles the corpus' if args.workload in SEEDED else 'is ignored (fixed enumeration)'}")
    metrics = {}
    complete = reps and all("wall_s" in r for r in reps)  # no call raised
    if complete and args.trace:
        untraced, traced = reps
        if "per_layer" not in traced:
            problems.append("traced run produced no per-layer metrics")
        elif untraced["digest"] != traced["digest"]:
            problems.append("output digest differs with tracing on and off")
        else:
            per_layer = dict(traced["per_layer"])
            per_layer["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
            for name in per_layer_names():
                metrics[name] = {"value": per_layer[name], "unit": unit_of(name)}
                print(f"per_layer {name} {per_layer[name]} {unit_of(name)}")
            print(f"spans {WORK / 'spans' / f'{args.workload}-seed{args.seed}.spans'}")
    elif complete:
        report = end_to_end(args.workload, setups + [r["setup_s"] for r in reps], reps)
        for name, (value, samples, unit) in report.items():
            print(f"metric {name} {value} {unit} (n={samples})")
            if name in END_TO_END:
                metrics[name] = {"value": value, "unit": unit}
    correct = not problems
    attempted = sum(r["attempted"] for r in reps) or 1
    failed = sum(r["failed"] for r in reps) or int(not correct)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    if reps:
        env = environment(args.workload, reps)
        print("env " + json.dumps(env, sort_keys=True))
        (WORK / "results").mkdir(exist_ok=True)
        record = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        record.write_text(json.dumps({"env": env, "result": result, "reps": reps}, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

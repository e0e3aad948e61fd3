"""One repetition of a latcert benchmark workload, in a fresh interpreter.

`run.py` starts this script once per repetition, so every repetition meets
latcert's module caches cold, as a CLI user does. The script imports
latcert (and, for store-verify, loads the certificate corpus), which is the
set-up; then, unless `--mode setup` asks for the set-up alone, it runs the
timed phase as one closed-loop caller and checks every output against the
reference below. The result goes to `--out` as JSON.

`--mode corpus` instead builds the store-verify corpus: the certificates of
the cubic search, checked like the cubic-search workload's output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import traceback
from time import perf_counter

WORKLOADS = ("cubic-search", "quartic-filter", "store-verify")

# Search sizes per benchmark size; store-verify stores the cubic search output.
CUBIC_BOUND = {"full": 4, "smoke": 2}
QUARTIC_BOUND = {"full": 3, "smoke": 1}

# Reference outputs, computed with latcert 0.1.0 (certificate format "1").
CUBIC_REFERENCE = {
    "full": {"count": 212, "digest_prefix": "c99e3258a890166a"},
    "smoke": {"count": 6, "digest_prefix": "58fb0fd819877cad"},
}
QUARTIC_REFERENCE = {
    "full": ["2,-3,-3,2,1", "2,3,-3,-2,1"],
    "smoke": [],
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check_search(latcert, certificates, size: str) -> tuple[str, list[str]]:
    ref = CUBIC_REFERENCE[size]
    digest = _sha256("".join(latcert.canonical_json(c) for c in certificates))
    problems = []
    if len(certificates) != ref["count"]:
        problems.append(f"search returned {len(certificates)} certificates, expected {ref['count']}")
    if not digest.startswith(ref["digest_prefix"]):
        problems.append(f"certificate digest {digest[:16]}, expected {ref['digest_prefix']}")
    return digest, problems


def cubic_search(latcert, size: str, snapshot) -> dict:
    bound = CUBIC_BOUND[size]
    start = perf_counter()
    certificates = latcert.search_seeds(latcert.SearchConfig(degree=3, coefficient_bound=bound))
    wall = perf_counter() - start
    snapshot(wall)
    digest, problems = _check_search(latcert, certificates, size)
    return {
        "wall_s": wall,
        "polys_per_s": (2 * bound + 1) ** 3 / wall,
        "certs_per_s": len(certificates) / wall,
        "attempted": 1,
        "failed": int(bool(problems)),
        "problems": problems,
        "digest": digest,
    }


def quartic_filter(latcert, size: str, snapshot) -> dict:
    bound = QUARTIC_BOUND[size]
    start = perf_counter()
    fields = list(latcert.field_candidates(latcert.SearchConfig(degree=4, coefficient_bound=bound)))
    wall = perf_counter() - start
    snapshot(wall)
    names = [f.min_poly.to_string() for f in fields]
    problems = []
    if names != QUARTIC_REFERENCE[size]:
        problems.append(f"fields {names}, expected {QUARTIC_REFERENCE[size]}")
    return {
        "wall_s": wall,
        "polys_per_s": (2 * bound + 1) ** 4 / wall,
        "attempted": 1,
        "failed": int(bool(problems)),
        "problems": problems,
        "digest": _sha256("\n".join(names)),
    }


def store_verify(latcert, snapshot, corpus: dict, seed: int, store: str) -> dict:
    """Write every corpus certificate into a fresh store, then verify every
    stored file; the seed only shuffles the order."""
    certificates = corpus["certificates"]
    order = list(range(len(certificates)))
    random.Random(seed).shuffle(order)
    if os.path.exists(store):
        raise SystemExit(f"store directory {store} is not fresh")
    paths: dict[int, str] = {}
    write_ms, verify_ms = [], []
    failed_writes = failed_verifies = 0
    problems = []

    start = perf_counter()
    for i in order:
        t0 = perf_counter()
        try:
            paths[i] = latcert.write_certificate(certificates[i], store)
        except Exception:  # counted as a failed operation, reported below
            failed_writes += 1
            problems.append(traceback.format_exc(limit=3))
        write_ms.append((perf_counter() - t0) * 1e3)
    for i in order:
        if i not in paths:
            continue
        t0 = perf_counter()
        try:
            status = latcert.verify_certificate(paths[i]).status
        except Exception:
            status = traceback.format_exc(limit=3)
        verify_ms.append((perf_counter() - t0) * 1e3)
        if status != "OK":
            failed_verifies += 1
            problems.append(f"verify of {os.path.basename(paths[i])}: {status}")
    wall = perf_counter() - start
    snapshot(wall)

    # the store must list every file and hold the corpus byte for byte
    store_problems = []
    with open(os.path.join(store, "index.json"), encoding="utf-8") as fh:
        listed = {entry["file"] for entry in json.load(fh)["certificates"]}
    stored = {os.path.basename(p) for p in paths.values()}
    if len(stored) != len(certificates) or listed != stored:
        store_problems.append(f"index lists {len(listed)} files, {len(certificates)} were stored")
    texts = []
    for i in range(len(certificates)):
        if i in paths:
            with open(paths[i], encoding="utf-8") as fh:
                texts.append(fh.read())
    digest = _sha256("".join(texts))
    if digest != corpus["digest"]:
        store_problems.append(f"stored bytes digest {digest[:16]}, expected {corpus['digest'][:16]}")
    problems += store_problems
    return {
        "wall_s": wall,
        "write_ms": write_ms,
        "verify_ms": verify_ms,
        "attempted": 2 * len(certificates) + 1,
        "failed": failed_writes + failed_verifies + int(bool(store_problems)),
        "problems": problems,
        "digest": digest,
    }


def build_corpus(latcert, size: str, path: str) -> dict:
    """Run the cubic search and keep its certificates as the store-verify
    corpus, written atomically so an interrupted build leaves nothing."""
    certificates = latcert.search_seeds(
        latcert.SearchConfig(degree=3, coefficient_bound=CUBIC_BOUND[size])
    )
    digest, problems = _check_search(latcert, certificates, size)
    if not problems:
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"digest": digest, "certificates": certificates}, fh)
        os.replace(tmp, path)
    return {"attempted": 1, "failed": int(bool(problems)), "problems": problems}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--mode", choices=("setup", "timed", "corpus"), default="timed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--corpus", help="corpus file (store-verify)")
    ap.add_argument("--store", help="fresh store directory (store-verify)")
    ap.add_argument("--spans", help="where a traced run writes its spans")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="the parent's perf_counter() just before starting this process")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    import latcert

    corpus = None
    if args.workload == "store-verify" and args.mode != "corpus":
        with open(args.corpus, encoding="utf-8") as fh:
            corpus = json.load(fh)
    ready = perf_counter()
    result = {"setup_s": ready - args.spawned_at}

    if args.mode == "corpus":
        result.update(build_corpus(latcert, args.size, args.corpus))
    elif args.mode == "timed":
        import mpmath

        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()

        def snapshot(wall: float) -> None:
            # taken right after the timed phase, before the output checks
            if tracer is not None:
                result["per_layer"] = tracer.metrics(wall)

        try:
            if args.workload == "cubic-search":
                result.update(cubic_search(latcert, args.size, snapshot))
            elif args.workload == "quartic-filter":
                result.update(quartic_filter(latcert, args.size, snapshot))
            else:
                result.update(store_verify(latcert, snapshot, corpus, args.seed, args.store))
        except Exception:  # the whole call failed: one failed operation
            result.update(attempted=1, failed=1, problems=[traceback.format_exc(limit=5)])
        if tracer is not None and args.spans:
            tracer.write_spans(args.spans)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["versions"] = {
            "python": sys.version.split()[0],
            "mpmath": mpmath.__version__,
            "latcert": latcert.__version__,
        }

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()

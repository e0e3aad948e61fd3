"""Outside-in tracing of latcert's public functions.

`Tracer.install()` wraps each function named in `SPANNED` and rebinds the
wrapper in every latcert module that imported the original, so calls made
inside the package are traced too (for example `search.is_irreducible` and
`runner.factor_prime`). `FieldElement.sign_at` is wrapped on the class and
`mpmath.pslq` on the mpmath module. Nothing in latcert itself changes.

Each traced call becomes one span (name, start, end, parent) kept in memory
and written out by `write_spans` after the run. Self time is a span's
duration minus the time covered by its child spans; single-threaded spans
never overlap, so that is the duration minus the sum of the children's.
"""

from __future__ import annotations

import functools
import os
import sys
from time import perf_counter_ns

# module -> functions that get a span, named "<module>.<function>"
SPANNED = {
    "polynomials": (
        "is_irreducible",
        "isolate_real_roots",
        "refine_interval",
        "interval_value_range",
        "resultant",
        "discriminant",
    ),
    "number_field": ("automorphism_count",),
    "local": ("factor_prime", "local_norm_test", "hilbert_product_check"),
    "modular": ("factor_monic", "hensel_lift_blocks", "degree_pattern"),
    "hermitian": ("signature_pattern", "group_isomorphism_verdict", "seed_pair_check"),
    "finite_groups": ("congruence_index",),
    "volume_fingerprint": ("fingerprint",),
    "runner": ("build_certificate",),
    "certificates": ("canonical_json", "write_certificate", "rebuild_index", "load_certificate"),
}
SIGN_AT = "number_field.sign_at"
PSLQ = "number_field.pslq"
VERDICTS = ("PASS", "FAIL", "UNKNOWN")


def span_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in SPANNED.items() for fn in fns]
    return names + [SIGN_AT, PSLQ]


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names = []
    for name in span_names():
        names += [f"{name}.calls", f"{name}.self_s"]
    names += [
        f"{SIGN_AT}.wall_share",
        "local.factor_prime.hit_ratio",
        "local.splitting_in_E.hit_ratio",
        "local.block_cache.entries",
        *(f"runner.verdict.{v}" for v in VERDICTS),
        "search.polys_scanned",
        "search.fields_kept",
        "search.field_keep_ratio",
        "search.pass_ratio",
        "certificates.bytes_written",
        "trace.overhead_ratio",
    ]
    return names


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_share")):
        return "ratio"
    if metric.endswith("bytes_written"):
        return "B"
    return "count"


class Tracer:
    """In-memory span recorder for one process and one thread."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int]] = []  # name id, start, end, parent
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.cover_ns: list[int] = []  # union of a name's spans
        self._depth: list[int] = []
        self._stack: list[list[int]] = []  # [span index, child ns]
        self.counts = {"polys_scanned": 0, "fields_kept": 0, "bytes_written": 0}
        self.verdicts = dict.fromkeys(VERDICTS, 0)

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        for table in (self.calls, self.self_ns, self.cover_ns, self._depth):
            table.append(0)
        return len(self.names) - 1

    def span(self, name: str, fn, on_result=None):
        nid = self._name_id(name)
        spans, stack = self.spans, self._stack
        calls, self_ns, cover_ns, depth = self.calls, self.self_ns, self.cover_ns, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0]
            stack.append(frame)
            depth[nid] += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                spans[index] = (nid, start, end, parent)
                calls[nid] += 1
                self_ns[nid] += duration - frame[1]
                depth[nid] -= 1
                if not depth[nid]:
                    cover_ns[nid] += duration
                if stack:
                    stack[-1][1] += duration
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_yields(self, key: str, gen_fn):
        counts = self.counts

        @functools.wraps(gen_fn)
        def counted(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return counted

    def _on_certificate(self, payload) -> None:
        self.verdicts[payload["verdict"]["overall"]] += 1

    def _on_write(self, path) -> None:
        index = os.path.join(os.path.dirname(path), "index.json")
        self.counts["bytes_written"] += os.path.getsize(path) + os.path.getsize(index)

    def install(self) -> None:
        """Wrap every traced function; call after `import latcert`."""
        import mpmath
        from latcert import number_field, search

        hooks = {
            "runner.build_certificate": self._on_certificate,
            "certificates.write_certificate": self._on_write,
        }
        for mod, fns in SPANNED.items():
            module = sys.modules[f"latcert.{mod}"]
            for fn in fns:
                name = f"{mod}.{fn}"
                original = getattr(module, fn)
                _rebind(original, self.span(name, original, hooks.get(name)))
        for fn, key in (("candidate_polynomials", "polys_scanned"), ("field_candidates", "fields_kept")):
            original = getattr(search, fn)
            _rebind(original, self._count_yields(key, original))
        number_field.FieldElement.sign_at = self.span(SIGN_AT, number_field.FieldElement.sign_at)
        mpmath.pslq = self.span(PSLQ, mpmath.pslq)

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the traced run (all but the overhead ratio)."""
        from latcert import local

        out: dict[str, float] = {}
        ids = {name: i for i, name in enumerate(self.names)}
        for name in span_names():
            out[f"{name}.calls"] = self.calls[ids[name]]
            out[f"{name}.self_s"] = self.self_ns[ids[name]] / 1e9
        out[f"{SIGN_AT}.wall_share"] = self.cover_ns[ids[SIGN_AT]] / 1e9 / wall_s
        out["local.factor_prime.hit_ratio"] = _hit_ratio(local.factor_prime.__wrapped__)
        out["local.splitting_in_E.hit_ratio"] = _hit_ratio(local.splitting_in_E)
        out["local.block_cache.entries"] = len(local._BLOCK_CACHE)
        for verdict, n in self.verdicts.items():
            out[f"runner.verdict.{verdict}"] = n
        scanned, kept = self.counts["polys_scanned"], self.counts["fields_kept"]
        built = self.calls[ids["runner.build_certificate"]]
        out["search.polys_scanned"] = scanned
        out["search.fields_kept"] = kept
        out["search.field_keep_ratio"] = kept / scanned if scanned else 0.0
        out["search.pass_ratio"] = self.verdicts["PASS"] / built if built else 0.0
        out["certificates.bytes_written"] = self.counts["bytes_written"]
        return out

    def write_spans(self, path: str) -> None:
        """One header line of span names, then `name start_ns end_ns parent`
        per span, with times relative to the first span's start."""
        origin = self.spans[0][1] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(" ".join(self.names) + "\n")
            fh.writelines(
                f"{nid} {start - origin} {end - origin} {parent}\n"
                for nid, start, end, parent in self.spans
            )


def _rebind(original, replacement) -> None:
    """Point every latcert module attribute bound to `original` at
    `replacement`, the package namespace included."""
    for modname, module in list(sys.modules.items()):
        if modname != "latcert" and not modname.startswith("latcert."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _hit_ratio(cached_fn) -> float:
    info = cached_fn.cache_info()
    lookups = info.hits + info.misses
    return info.hits / lookups if lookups else 0.0

"""One fresh worker process of a benchmark run.

Started by ``run.py`` with the package's ``src`` on ``PYTHONPATH`` and the
BLAS thread count fixed.  The first pass is the cold pass; one later
(warm) pass follows, and more while one more fits into ``--seconds`` from
the start of the cold pass.  Every pass goes through the correctness
gate; a failed pass is counted, never dropped.

With ``--trace 1`` the cold pass is traced under ``tracemalloc`` (it is
the pass that fills the profile caches), then untraced and traced passes
alternate; per-layer figures are medians over the traced later passes and
the tracing overhead is traced minus untraced median pass time.  Untraced,
each pass of a workload marked ``scaled`` also gets its host speed factor
(calibrate.py; 1.0 for the others), cold pass first.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

from calibrate import sample, speed_factor
from tracer import Tracer
from workloads import WORKLOADS, failures, load_reference, mismatches, reference_view, run_pass

INPUT_MAKERS = ("random_haar", "random_cells", "normalize", "surgery_corpus", "generate_signal")


def fits(start, seconds, last) -> bool:
    """True when one more pass as long as the last one ends within the run."""
    return time.perf_counter() - start + last <= seconds


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer figures of one traced pass: self seconds per span name,
    call counts, and the counters kept by the tracer's hooks."""
    from dyadicpara.harness import SUITE_NAMES

    rows = tr.summary()

    def self_s(name):
        return rows[name]["self_s"] if name in rows else 0.0

    def calls(name):
        return rows[name]["calls"] if name in rows else 0

    c = tr.counts
    dense = calls("transforms.coefficients.dense")
    transforms = dense + calls("transforms.coefficients.haar")
    m = {
        "transforms.coefficients.dense.s": self_s("transforms.coefficients.dense"),
        "transforms.coefficients.dense.calls": dense,
        "transforms.coefficients.distinct_frac": len(tr.distinct) / transforms if transforms else 0.0,
        "transforms.coefficients.haar.s": self_s("transforms.coefficients.haar"),
        "transforms.coefficients.haar.calls": calls("transforms.coefficients.haar"),
        "transforms.reconstruct.s": self_s("transforms.reconstruct"),
    }
    for key, name in (
        ("dense.matrix_bytes", "computed_matrix_bytes_per_call"),
        ("dense.scaled_copy_bytes", "computed_copy_bytes_per_call"),
        ("dense.madds", "computed_madds_per_call"),
    ):
        m[f"transforms.coefficients.dense.{name}"] = c[key] / dense if dense else 0.0
    for kind in ("square", "max", "mixed"):
        name = f"operators.governing_operator.{kind}"
        m[f"{name}.s"] = self_s(name)
        m[f"{name}.calls"] = calls(name)
    for fn in ("eval_L", "eval_B", "eval_Lambda"):
        m[f"paraproducts.{fn}.s"] = self_s(f"paraproducts.{fn}")
        m[f"paraproducts.{fn}.calls"] = calls(f"paraproducts.{fn}")
    m.update({
        "decomposition.classify_rectangles.s": self_s("decomposition.classify_rectangles"),
        "decomposition.rectangles_classified": c["decomposition.rectangles_classified"],
        "decomposition.technical_lemma_check.s": self_s("decomposition.technical_lemma_check"),
        "decomposition.technical_lemma_check.calls": calls("decomposition.technical_lemma_check"),
        "decomposition.hypothesis_holds.s": self_s("decomposition.hypothesis_holds"),
        "decomposition.classes": c["decomposition.classes"],
        "decomposition.build_exceptional_sets.s": tr.outermost_seconds(
            ["decomposition.build_exceptional_sets"]),
        "decomposition.calibration.doublings": calls("decomposition._omega_sets"),
        "lattice.enumerate_rectangles.s": self_s("lattice.enumerate_rectangles"),
        "lattice.collection_of.s": self_s("lattice.collection_of"),
        "lattice.shadow_mask.s": self_s("lattice.shadow_mask"),
    })
    for fn in ("h1_norm", "bmo_norm_1param", "product_bmo_lower"):
        m[f"norms.{fn}.s"] = self_s(f"norms.{fn}")
    for fn in ("lp_norm", "weak_quasinorm"):
        m[f"signals.{fn}.s"] = self_s(f"signals.{fn}")
    for suite in SUITE_NAMES:
        span = "harness.suite_" + suite.replace("-", "_")
        m[f"harness.suite.{suite}.s"] = tr.outermost_seconds([span])
    m["harness.suite.sweep.s"] = tr.outermost_seconds(["harness.run_sweep"])
    m["harness.inputs.s"] = tr.outermost_seconds([f"harness.{fn}" for fn in INPUT_MAKERS])
    m["trace.spans"] = len(tr.spans)
    return m


def environment() -> dict:
    import numpy

    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.exists() else []:
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except Exception:  # older numpy has no dict mode
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_caches": caches,
        "machine": platform.machine(),
    }


class Run:
    def __init__(self, workload, seed, smoke):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        entry = load_reference(workload, seed, smoke)
        self.reference = entry and entry["outputs"]
        self.call_counts = entry and entry["call_counts"]
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def one_pass(self, traced: bool, malloc: bool = False, calibration=None):
        """Runs and checks one pass; returns (seconds, tracer, peak MB).

        Given a `calibration` list, times the calibration kernel into it
        before each configuration of the pass and after the last one; that
        time is left out of the pass's seconds."""
        tracer = Tracer(spans=traced)
        reports, error, peak = None, None, 0.0
        paused = 0.0

        def calibrate():
            nonlocal paused
            begin = time.perf_counter()
            sample(calibration)
            paused += time.perf_counter() - begin

        if malloc:
            tracemalloc.start()
        with tracer:
            start = time.perf_counter()
            try:
                reports = run_pass(
                    self.workload, self.seed, self.smoke, None if calibration is None else calibrate
                )
            except Exception as exc:  # any raised error fails the pass
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start - paused
        if malloc:
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
        self.attempted += 1
        problems = [error] if error else self.check({"reports": reports, "kappas": tracer.kappas})
        if problems:
            self.failed += 1
            self.problems.extend(problems[:5])
        return seconds, tracer, peak

    def check(self, outputs) -> list:
        problems = [f"check failed: {name}" for name in failures(outputs)]
        encoded = json.dumps(outputs, sort_keys=True)
        if self.first is None:
            self.first = encoded
        elif encoded != self.first:
            problems.append("outputs differ from the first pass")
        if self.reference is not None:
            problems.extend(
                f"reference mismatch at {path}"
                for path in mismatches(reference_view(outputs), self.reference)[:5]
            )
        elif not self.smoke:
            problems.append("no reference outputs recorded")
        return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    import dyadicpara  # noqa: F401  (the package must load before patching)

    run = Run(WORKLOADS[args.workload], args.seed, args.smoke)
    start = time.perf_counter()
    result = {"env": environment()}
    if args.trace:
        _, cold, peak = run.one_pass(traced=True, malloc=True)
        plain, traced = [], []
        while not plain or not traced or fits(start, args.seconds, plain[-1]):
            if len(plain) <= len(traced):
                plain.append(run.one_pass(traced=False)[0])
            else:
                seconds, tr, _ = run.one_pass(traced=True)
                traced.append((seconds, layer_metrics(tr)))
        layers = {
            name: statistics.median(m[name] for _, m in traced) for name in traced[0][1]
        }
        c = cold.counts
        layers.update({
            "families.profile_matrix.build_s": c["families.profile_matrix.build_s"],
            "families.profile_matrix.misses": c["families.profile_matrix.misses"],
            "families.profile_cache_mb": c["families.profile_cache_bytes"] / 2**20,
            "harness.tracemalloc_peak_mb": peak,
            "trace.overhead_s": statistics.median(s for s, _ in traced)
            - statistics.median(plain),
        })
        result["layers"] = layers
        result["spans"] = cold.summary()
        seen, want = cold.call_counts(), run.call_counts
        if want is not None and seen != want:
            result["trace_mismatch"] = {
                k: [seen.get(k), want.get(k)]
                for k in set(seen) | set(want)
                if seen.get(k) != want.get(k)
            }
    else:
        def timed_pass():
            samples = [] if run.workload.scaled else None
            seconds = run.one_pass(traced=False, calibration=samples)[0]
            return seconds, speed_factor(samples) if samples else 1.0

        passes = [timed_pass()]  # (wall seconds, speed factor), cold pass first
        while len(passes) < 2 or fits(start, args.seconds, passes[-1][0]):
            passes.append(timed_pass())
        result.update({
            "cold_s": passes[0][0],
            "warm": [seconds for seconds, _ in passes[1:]],
            "speed": [factor for _, factor in passes],
            "elapsed_s": time.perf_counter() - start,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
    result.update({
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems[:20],
        "digest": run.first and hashlib.sha256(run.first.encode()).hexdigest(),
    })
    result["correct"] = run.failed == 0 and "trace_mismatch" not in result
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

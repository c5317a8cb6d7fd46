"""One benchmark run of one workload.

The parent process never imports the package under test.  It writes the
seeded inputs, prepares the eigenbasis cache, then starts a fresh worker
process (worker.py) for every measurement: set-up, each untimed-import
command sample, and the traced sample.  Every command's outputs are
checked; a non-zero exit or a failed check counts against fail_ratio.
"""

import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"

# fewest set-up runs and fewest command samples per run
PROFILES = {"full": (7, 3), "smoke": (2, 1)}
# a run stops starting samples after SAMPLE_DEADLINE s and kills a worker
# that would carry it past RUN_BUDGET s
SAMPLE_DEADLINE = 120.0
RUN_BUDGET = 170.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing program, crashed set-up)."""


def program_present():
    return (SRC / "qdiff" / "__init__.py").is_file() and (SRC / "qdiff" / "cli.py").is_file()


def unit(name):
    if name.endswith("pair_evals"):
        return "count_computed"
    if name.endswith("table_bytes"):
        return "B_computed"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _blas_threads():
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _tree_digest(root):
    h = hashlib.sha256()
    for path in sorted(Path(root).rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint():
    """Versions, BLAS and thread count, cores, numba, and the code under test."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "numba_imports": has_numba,
        "git_commit": _git_commit(),
        "src_sha256": _tree_digest(SRC),
    }


class _Run:
    """Worker launching and sample bookkeeping for one run."""

    def __init__(self, work, spec):
        self.work = work
        self.spec = spec
        self.start = time.monotonic()
        self.count = 0
        self.attempted = 0
        self.failures = []

    def elapsed(self):
        return time.monotonic() - self.start

    def worker(self, job):
        self.count += 1
        name = f"job{self.count}"
        job = dict(job, src=str(SRC), result=str(self.work / f"{name}.result.json"))
        path = self.work / f"{name}.json"
        path.write_text(json.dumps(job), encoding="ascii")
        timeout = max(5.0, RUN_BUDGET - self.elapsed())
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(path)],
                              cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
            raise BenchError(f"{job['mode']} worker exited {proc.returncode}: {tail[0]}")
        return json.loads(Path(job["result"]).read_text(encoding="ascii"))

    def sample(self, trace):
        """Run the command once in a fresh process and check its outputs."""
        out = self.work / f"out{self.count + 1}"
        spans = self.work / f"spans{self.count + 1}.json"
        job = {"mode": "command", "argv": self.spec["argv"] + ["--out", str(out)],
               "trace": trace, "spans": str(spans)}
        cache = self.spec["cache"]
        before = _stat(cache)
        self.attempted += 1
        try:
            res = self.worker(job)
        except (BenchError, subprocess.TimeoutExpired) as exc:
            self.failures.append(str(exc))
            return None
        if res["rc"] != 0:
            problems = [f"command exited {res['rc']}"]
        else:
            try:
                problems = self.spec["check"](out, self.spec["oracle"])
            except Exception as exc:  # any malformed output is a failed check
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            if cache and _stat(cache) != before:
                problems.append("eigenbasis cache was rewritten")
        self.failures += problems
        res["ok"] = not problems
        if trace:
            res["spans"] = json.loads(spans.read_text(encoding="ascii"))["spans"]
        shutil.rmtree(out, ignore_errors=True)
        return res


def _stat(path):
    if not path:
        return None
    st = os.stat(path)
    return st.st_size, st.st_mtime_ns


def run(workload, seed, seconds, trace, profile="full", emit=print):
    """Measure one workload; returns the result line as a dict."""
    if not program_present():
        raise BenchError(f"no qdiff sources under {SRC}")
    setup_repeats, min_samples = PROFILES[profile]
    RUNS.mkdir(exist_ok=True)
    work = RUNS / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        spec = workloads.prepare(workload, work, seed, profile)
        r = _Run(work, spec)
        if spec["cache"]:
            r.worker({"mode": "prep", "n": spec["n"], "cache": spec["cache"]})
        setup_job = {"mode": "setup", "n": spec["n"], "cache": spec["cache"], "spin": spec["spin"]}
        # set-up runs are spread between the command samples, so that both
        # medians see the same stretch of machine load
        setups, samples, measured = [], [], 0.0
        while r.elapsed() < SAMPLE_DEADLINE or not samples:
            if not trace:
                setups.append(r.worker(setup_job)["setup_s"])
            res = r.sample(trace=False)
            if res is not None:
                samples.append(res)
                measured += res["wall_s"]
            if measured >= seconds and len(samples) >= min_samples:
                break
            if r.attempted >= 3 * max(min_samples, 1) and not samples:
                break
        while not trace and len(setups) < setup_repeats:
            setups.append(r.worker(setup_job)["setup_s"])
        traced = r.sample(trace=True) if trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not samples:
        raise BenchError("no command sample completed: " + "; ".join(r.failures[:3]))

    walls = [s["wall_s"] for s in samples]
    rss = [s["peak_rss_mb"] for s in samples]
    failed = r.attempted - sum(1 for s in samples + [traced] if s is not None and s["ok"])
    q1, wall_med, q3 = _quartiles(walls)
    env = fingerprint()
    emit(f"workload {workload} seed {seed} trace {trace} profile {profile} seconds {seconds}")
    emit("env " + json.dumps(env, sort_keys=True))
    emit("inputs " + json.dumps(spec["record"], sort_keys=True))
    emit(f"wall_s {wall_med!r} s (median; q1 {q1!r}, q3 {q3!r}; n={len(walls)})")
    if setups:
        s1, setup_med, s3 = _quartiles(setups)
        emit(f"setup_s {setup_med!r} s (median; q1 {s1!r}, q3 {s3!r}; n={len(setups)})")
    emit(f"peak_rss_mb {statistics.median(rss)!r} MB (median; max {max(rss)!r}; n={len(rss)})")
    emit(f"fail_ratio {failed / r.attempted!r} 1 ({failed} of {r.attempted} runs failed)")
    for problem in r.failures:
        emit(f"failure: {problem}")

    if trace:
        if traced is None:
            raise BenchError("traced sample did not complete: " + "; ".join(r.failures[-1:]))
        metrics, detail = summarize(traced["spans"], traced["wall_s"])
        metrics["trace.overhead_s"] = traced["wall_s"] - wall_med
        if traced["missing"]:
            emit("trace: targets missing from the package: " + ", ".join(traced["missing"]))
        emit(f"trace accounting: self times {detail['self_sum_s']!r} s + cli.self_s "
             f"{metrics['cli.self_s']!r} s = traced wall {traced['wall_s']!r} s")
        emit("trace: pair_evals and table_bytes are computed from point and pair counts")
    else:
        metrics = {"wall_s": wall_med, "setup_s": setup_med, "peak_rss_mb": statistics.median(rss)}
    line = {
        "correct": failed == 0,
        "attempted": r.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    record = {"workload": workload, "seed": seed, "trace": trace, "profile": profile,
              "seconds": seconds, "env": env, "inputs": spec["record"], "walls_s": walls,
              "setups_s": setups, "peak_rss_mb": rss, "failures": r.failures, "result": line}
    if trace:
        record["spans_by_name"] = detail["spans"]
    results = RUNS / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{workload}-seed{seed}-trace{trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1), encoding="ascii")
    if trace:
        path.with_suffix(".spans.json").write_text(json.dumps(traced["spans"]), encoding="ascii")
    emit(f"results {path.relative_to(ROOT)}")
    return line

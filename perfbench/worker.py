"""Child process for one measurement, so each starts from a fresh interpreter.

Usage: python3 worker.py JOB.json

The job names a mode:
  prep     build the Laplacian eigenbasis and save it as a qeig-v1 cache;
  setup    time `import qdiff`, getting the eigenbasis the way the command
           does (build, or load from the cache) and SpinBasis(N) if the
           command uses one;
  command  time qdiff.cli.main(argv) in-process (imports excluded), with
           or without spans, and report ru_maxrss.
The result is written as JSON to the job's "result" path.
"""

import json
import os
import resource
import sys
import time


def _check_origin(qdiff, src):
    origin = os.path.realpath(qdiff.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"imported qdiff from {origin}, not from the checkout")


def prep(job):
    import qdiff

    _check_origin(qdiff, job["src"])
    qdiff.save_eigenbasis(job["cache"], qdiff.build_eigenbasis(job["n"]))
    return {}


def setup(job):
    t0 = time.perf_counter()
    import qdiff

    if job["cache"]:
        eig = qdiff.load_eigenbasis(job["cache"])
    else:
        eig = qdiff.build_eigenbasis(job["n"])
    if job["spin"]:
        qdiff.SpinBasis(job["n"])
    t1 = time.perf_counter()
    _check_origin(qdiff, job["src"])
    if eig.N != job["n"]:
        raise RuntimeError(f"eigenbasis has N={eig.N}, expected {job['n']}")
    return {"setup_s": t1 - t0}


def command(job):
    import qdiff
    import qdiff.cli

    _check_origin(qdiff, job["src"])
    tracer = missing = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        missing = tracer.install()
    t0 = time.perf_counter()
    try:
        rc = qdiff.cli.main(job["argv"])
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 1
    t1 = time.perf_counter()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"rc": rc, "wall_s": t1 - t0, "peak_rss_mb": peak_mb}
    if tracer is not None:
        with open(job["spans"], "w", encoding="ascii") as fh:
            json.dump({"origin": t0, "spans": tracer.spans}, fh)
        result["missing"] = missing
    return result


def main(job_path):
    with open(job_path, encoding="ascii") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    result = {"prep": prep, "setup": setup, "command": command}[job["mode"]](job)
    with open(job["result"], "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

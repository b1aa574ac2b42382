"""One build of gausspen, stepped by ``run.py`` one repetition at a time.

    python3 bench/worker.py <new|seed|traced> <work dir>

``new`` imports the checkout's gausspen from ``src/``, ``seed`` the frozen
seed build (``gausspen_seed``) and nothing else, ``traced`` the checkout
with the tracer in place for every repetition of the workload.  The worker
imports its package, parses the configs listed in ``<work dir>/plan.json``
and prints one JSON line: CLOCK_MONOTONIC readings when the worker was
ready to import it, the package imported and the configs parsed, and the
environment.
It parses the plan's probe configs (the same commands at a tiny size) after
the last reading.
Then it reads commands, one JSON object a line, from standard input and
answers each with one JSON line:

``{"run": <dir>, "keep": <bool>, "probe": <bool>}``
    Run every config, or every probe config, through ``cli.run(config,
    jobs=1)`` into
    ``<work dir>/<dir>``; answer the wall time from the call until the CSVs
    are written, a digest of the files, and peak memory so far.  The output
    is deleted unless ``keep`` is true.  An exception is answered with its
    traceback.
``{"quit": <span file>}``
    ``traced`` writes its spans to the span file and answers the tracer's
    totals over its traced repetitions; the worker then exits.
"""

import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def tree_digest(directory):
    """sha256 over every file's relative path and bytes, in sorted order."""
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(directory)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, directory).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def peak_rss_mb():
    """Peak resident memory of this process plus its children, in MB."""
    return sum(resource.getrusage(who).ru_maxrss for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0  # KiB on Linux


def environment():
    """Versions, read without importing anything the package has not."""
    import importlib.metadata

    import numpy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def import_package(side):
    if side == "seed":
        import gausspen_seed as package
        import gausspen_seed.cli  # noqa: F401
    else:
        sys.path.insert(0, SRC)
        import gausspen as package
        import gausspen.cli  # noqa: F401

        where = os.path.dirname(os.path.abspath(package.__file__))
        if where != os.path.join(SRC, "gausspen"):
            raise SystemExit(f"gausspen imported from {where}, not {SRC}")
    return package


# The answers go to the original standard output; anything the package
# prints goes to standard error instead, so it cannot garble them.
ANSWERS = os.fdopen(os.dup(1), "w")
os.dup2(2, 1)
sys.stdout = sys.stderr


def answer(message):
    ANSWERS.write(json.dumps(message) + "\n")
    ANSWERS.flush()


def main(argv):
    side, work = argv
    with open(os.path.join(work, "plan.json")) as handle:
        plan = json.load(handle)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    package = import_package(side)
    imported = time.clock_gettime(time.CLOCK_MONOTONIC)
    configs = [package.config.parse_config(os.path.join(work, name))
               for name in plan["configs"]]
    parsed = time.clock_gettime(time.CLOCK_MONOTONIC)
    probes = [package.config.parse_config(os.path.join(work, name))
              for name in plan["probe"]]
    tracer = None
    if side == "traced":
        from tracer import Tracer

        tracer = Tracer()
    answer({"ready": ready, "imported": imported, "parsed": parsed, "env": environment()})

    reps = 0
    for line in sys.stdin:
        command = json.loads(line)
        if "quit" in command:
            if tracer is not None:
                tracer.dump(command["quit"])
                answer({"layers": tracer.summary(1), "repetitions": reps})
            return
        out = os.path.join(work, command["run"])
        runs = [dataclasses.replace(config, output=out)
                for config in (probes if command["probe"] else configs)]
        traced = tracer is not None and not command["probe"]
        if traced:
            tracer.run_id = reps
            tracer.install()
        try:
            start = time.perf_counter()
            for config in runs:
                package.cli.run(config, jobs=1)
            elapsed = time.perf_counter() - start
        except Exception:  # noqa: BLE001 - reported to run.py as a failed repetition
            answer({"error": traceback.format_exc()})
            continue
        finally:
            if traced:
                tracer.close()
        reps += traced
        answer({"time": elapsed, "digest": tree_digest(out), "peak_rss_mb": peak_rss_mb()})
        if not command["keep"]:
            shutil.rmtree(out)


if __name__ == "__main__":
    main(sys.argv[1:])

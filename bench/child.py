"""Run one gridlab CLI command in a fresh interpreter and report on it.

    python3 child.py SPEC_JSON RESULT_JSON SPAWNED_NS

SPEC_JSON holds {"argv": [...], "src": "<dir holding the gridlab package>",
"trace": true|false}.  SPAWNED_NS is CLOCK_MONOTONIC, in nanoseconds, read
by the parent just before it started this process, so set-up time covers
interpreter start-up plus every import up to a ready ``gridlab.cli``.

The child writes RESULT_JSON once, at the end: set-up and run times, the
exit code, peak RSS, the environment and, when tracing, every span.

Tracing wraps public functions in the namespace of each module that calls
them, because the modules import names directly (``from .rng import
stream``).  A span is [name, start_ns, end_ns, parent index, extra].
Functions called once per output row get a plain call counter instead of
a span, since a span per row would cost more than the call it times.  The
time each wrapper adds to its caller is measured after the command, so the
parent's self time can be corrected for it.
"""

import functools
import importlib
import importlib.util
import json
import os
import platform
import resource
import sys
import time

# (module, attribute, span name).  Names absent from a module are skipped,
# so a later refactor that removes one loses that span, not the run.
TRACE_POINTS = [
    ("gridlab.cli", "load_json", "config.load"),
    ("gridlab.config", "parse_simulate", "config.parse"),
    ("gridlab.config", "parse_sweep", "config.parse"),
    ("gridlab.cli", "dump_json", "config.write"),
    ("gridlab.cli", "atomic_write_text", "config.write"),
    ("gridlab.config", "atomic_write_text", "config.write"),
    ("gridlab.cli", "simulate", "montecarlo.simulate"),
    ("gridlab.cli", "sweep", "montecarlo.sweep"),
    ("gridlab.montecarlo", "two_chain_convergence", "montecarlo.two_chain"),
    ("gridlab.montecarlo", "growth_slope", "montecarlo.growth"),
    ("gridlab.montecarlo", "monotone_violations", "montecarlo.monotone"),
    ("gridlab.montecarlo", "ks_2samp", "montecarlo.ks"),
    ("gridlab.cli", "negative_drift_geometry", "lyapunov.geometry"),
    ("gridlab.montecarlo", "stream", "rng.stream"),
    ("gridlab.montecarlo", "gaussian", "rng.gaussian"),
]


def _draws(args, result):
    return int(getattr(result, "size", 0))


def _path(args, result):
    return str(args[0])


# (module, attribute, counter name): per-row calls, counted without a span.
COUNT_POINTS = [
    ("gridlab.cli", "lyap_h", "lyapunov.lyap_h_calls"),
]

# Cheap per-call facts, taken as the traced call returns.
EXTRAS = {"rng.gaussian": _draws, "config.write": _path}


def file_facts(path):
    """[bytes, data rows, fields per row] of one written file."""
    if not os.path.exists(path):
        return [0, 0, 0]
    size = os.path.getsize(path)
    if not path.endswith(".csv"):
        return [size, 0, 0]
    with open(path) as fh:
        header = fh.readline()
        rows = sum(1 for _ in fh)
    return [size, rows, header.count(",") + 1]


class Tracer:
    """Spans kept in memory; the parent of a span is the innermost open one."""

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.counts = {}

    def wrap(self, name, fn):
        spans, stack, extra = self.spans, self.stack, EXTRAS.get(name)
        now = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = now()
                stack.pop()
            if extra is not None:
                span[4] = extra(args, result)
            return result

        return traced

    def count(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        for points, wrapper in ((TRACE_POINTS, self.wrap), (COUNT_POINTS, self.count)):
            for mod_name, attr, name in points:
                mod = importlib.import_module(mod_name)
                if hasattr(mod, attr):
                    setattr(mod, attr, wrapper(name, getattr(mod, attr)))


def wrapper_costs(n=200_000):
    """Nanoseconds per call that tracing adds to the caller's self time.

    ``span_ns`` is a span wrapper's cost outside the span it records (the
    part inside lands in the child span); ``count_ns`` is a counter's whole
    cost.  Both are timed on a no-op function.
    """
    def noop():
        return None

    tracer = Tracer()
    traced, counted = tracer.wrap("noop", noop), tracer.count("noop", noop)
    now = time.perf_counter_ns

    def loop(fn):
        calls = range(n)
        start = now()
        if fn is None:
            for _ in calls:
                pass
        else:
            for _ in calls:
                fn()
        return now() - start

    empty, plain, span_total, count_total = loop(None), loop(noop), loop(traced), loop(counted)
    inside = sum(span[2] - span[1] for span in tracer.spans)
    return {"span_ns": (span_total - inside - empty) / n,
            "count_ns": (count_total - plain) / n}


def environment():
    import numpy
    import scipy

    mc = sys.modules.get("gridlab.montecarlo")
    kernel = getattr(mc, "_iterate", None)
    backend = "python" if kernel is getattr(mc, "_iterate_py", None) else "compiled"
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_backend": backend,
        "nproc": cpus,
        "workers": 1,
        "machine": platform.machine(),
    }


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)
    import gridlab
    import gridlab.cli

    ready_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    # Marks the end of set-up in the -X importtime output on stderr.
    print("bench-child: ready", file=sys.stderr, flush=True)
    if not os.path.realpath(gridlab.__file__).startswith(src + os.sep):
        sys.exit(f"bench-child: gridlab imported from {gridlab.__file__}, not {src}")

    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
        tracer.spans.append(["cli.command", 0, 0, -1, None])
        tracer.stack.append(0)

    code = 0
    start = time.perf_counter_ns()
    if tracer is not None:
        tracer.spans[0][1] = start
    try:
        gridlab.cli.main(spec["argv"], prog_name="gridlab")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    end = time.perf_counter_ns()
    if tracer is not None:
        tracer.spans[0][2] = end
        # Written-file facts are read after the command, off the clock.
        facts = {}
        for span in tracer.spans:
            if span[0] == "config.write":
                path = span[4]
                if path not in facts:
                    facts[path] = file_facts(path)
                span[4] = facts[path]

    result = {
        "setup_s": (ready_ns - int(sys.argv[3])) / 1e9,
        "run_s": (end - start) / 1e9,
        "exit_code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
        "spans": tracer.spans if tracer is not None else None,
        "counts": tracer.counts if tracer is not None else None,
        "wrapper_costs": wrapper_costs() if tracer is not None else None,
    }
    with open(sys.argv[2], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()

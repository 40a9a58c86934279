"""One benchmark iteration: a fresh interpreter that imports and runs the CLI.

Usage: python3 child.py SRC_DIR RESULT_JSON TRACE(0|1) CLI_ARGS...

The BLAS/OpenMP thread count is fixed by the parent through the environment,
before numpy is first imported here.  The record holds the import time of
`deltabox.cli`, the wall and CPU time of `deltabox.cli.main`, each also scaled
to the reference speed by the speed probes (speed.py) and without the time
spent in them, the probes themselves, the peak RSS, the environment and, when
tracing, the spans.
"""

import gc
import json
import os
import resource
import signal
import sys
import time


def _blas_threads():
    """Thread count OpenBLAS reports at run time, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _environment():
    import numpy

    return {"python": sys.version, "numpy": numpy.__version__,
            "numpy_config": numpy.show_config(mode="dicts"),
            "blas_threads_runtime": _blas_threads()}


def main() -> int:
    src, result_path, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    cli_args = sys.argv[4:]
    sys.path.insert(0, src)
    import speed  # imports numpy, which the kernel uses; setup_s starts after it

    probes = []

    def probe(*_):
        # The program's heap must not make the kernel slower through the collector.
        collecting = gc.isenabled()
        gc.disable()
        w, c = time.perf_counter(), time.process_time()
        speed.kernel()
        probes.append((w, time.perf_counter(), c, time.process_time()))
        if collecting:
            gc.enable()

    probe()
    signal.signal(signal.SIGALRM, probe)
    signal.setitimer(signal.ITIMER_REAL, speed.PROBE_INTERVAL_S, speed.PROBE_INTERVAL_S)
    import deltabox.cli

    probe()
    main_probe = len(probes) - 1
    module_file = os.path.realpath(deltabox.cli.__file__)
    if not module_file.startswith(os.path.realpath(src) + os.sep):
        print(f"deltabox imported from {module_file}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if trace:
        import tracer as tracing

        signal.setitimer(signal.ITIMER_REAL, 0.0)  # spans must not contain probes
        tracer = tracing.Tracer()
        tracing.install(tracer)
    code = deltabox.cli.main(cli_args)
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    probe()
    import_s, _, import_scaled, _ = speed.program_time(probes[:main_probe + 1])
    wall, cpu, wall_scaled, cpu_scaled = speed.program_time(probes[main_probe:])
    record = {"exit_code": code, "import_s": import_s, "import_scaled": import_scaled,
              "wall_s": wall, "cpu_s": cpu, "wall_scaled": wall_scaled, "cpu_scaled": cpu_scaled,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "environment": _environment(), "probes": probes}
    if tracer is not None:
        record["spans"] = tracer.spans
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

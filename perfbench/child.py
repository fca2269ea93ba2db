"""Run one ``angelesco`` CLI command in this fresh process and report on it.

Usage: python3 child.py RESULT_JSON TRACE OP LENGTH KERNEL -- <angelesco arguments>

Starts sampling the host's speed with reference kernel KERNEL (``calib.py``),
imports ``angelesco.cli`` (from ``PYTHONPATH``), optionally installs the
outside-in tracer (TRACE = 1), calls ``angelesco.cli.main`` once and writes
to RESULT_JSON the exit code, the import and in-process call times, the
kernel samples, the peak resident memory and, when traced, the spans and
counters.  Exits with the CLI's own exit code.
"""
import time

T_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import calib  # noqa: E402


def main(argv):
    result_path, trace, op, length = argv[1], argv[2] == "1", int(argv[3]), argv[4]
    if argv[6] != "--":
        raise SystemExit("usage: child.py RESULT_JSON TRACE OP LENGTH KERNEL -- ARGS")
    cli_args = argv[7:]
    sampler = calib.Sampler(argv[5])
    sampler.start()
    import angelesco.cli
    t_import = time.perf_counter()
    tracer = None
    if trace:
        from tracer import Tracer, install
        tracer = Tracer(op, float(length))
        install(tracer)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            rc = angelesco.cli.main(cli_args)
        else:
            rc = tracer.span(f"cli.{cli_args[0]}", angelesco.cli.main, cli_args)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    t1 = time.perf_counter()
    sampler.stop()
    report = {"rc": rc, "import_s": t_import - T_START, "main_s": t1 - t0,
              "main_window": [t0, t1], "kernel_samples": sampler.samples,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "package": angelesco.cli.__file__,
              "trace": tracer.dump() if tracer is not None else None}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))

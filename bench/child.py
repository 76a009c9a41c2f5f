"""Run one ftors command in a fresh interpreter and report its timings.

    python3 bench/child.py SPAWN_T RESULT_JSON MODE [FTORS_ARGV...]

SPAWN_T is the parent's `time.monotonic()` taken just before it started this
process; CLOCK_MONOTONIC is shared by all processes, so `setup_s` covers
interpreter start, numpy and the ftors import.  With no FTORS_ARGV the child
only measures set-up.  MODE is one of:

- `ref`: the child times reference slices (see `reference.py`) right after
  its imports, and during and after `ftors.cli.main`; `verdict_s` leaves out
  the slices taken during it;
- `plain`: `ftors.cli.main` runs alone;
- `trace`: the tracer wraps the ftors layers before `ftors.cli.main` runs,
  and the raw layer counters go into the result.
"""

import json
import sys
import time

TRACER_FAILED = 70


def main() -> int:
    spawn_t, result_path, mode = float(sys.argv[1]), sys.argv[2], sys.argv[3]
    argv = sys.argv[4:]

    import ftors.cli

    setup_s = time.monotonic() - spawn_t
    import numpy

    out = {"setup_s": setup_s, "python": sys.version.split()[0], "numpy": numpy.__version__}
    sampler = None
    if mode == "ref":
        import reference

        sampler = reference.Sampler()
        sampler.take()
    code = 0
    if argv:
        tracer = None
        if mode == "trace":
            import tracer as tracing

            try:
                tracer = tracing.install()
            except tracing.TracerError as exc:
                out["tracer_error"] = str(exc)
                code = TRACER_FAILED
        if code == 0:
            if sampler is not None:
                sampler.start()
            start = time.perf_counter()
            try:
                code = ftors.cli.main(argv)
            finally:
                if sampler is not None:
                    sampler.stop()
            out["verdict_s"] = time.perf_counter() - start
            out["exit_code"] = code
            if sampler is not None:
                out["verdict_s"] -= sampler.timed_wall
                sampler.take()
        if tracer is not None:
            out["layers"] = tracer.snapshot()
            out["bindings"] = tracer.bindings
    if sampler is not None:
        out["reference"] = sampler.slices
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""One measured `kdvgauge` process.

Usage: python3 child.py MODE STAMP_JSON SPANS_JSON -- <kdvgauge arguments>

MODE is one of
  run    run the CLI to the end;
  probe  stop at experiment dispatch, so only set-up is paid;
  trace  like run, with every public function of kdvgauge wrapped in a span.

The child stamps CLOCK_MONOTONIC (shared by all processes on the machine)
when it enters experiment dispatch and when `kdvgauge.cli.main` returns,
and writes those stamps with its own resource usage to STAMP_JSON.  In
trace mode it also writes the span store to SPANS_JSON.
"""

import json
import resource
import sys
import time


class _SetupDone(BaseException):
    """Raised at dispatch in probe mode; BaseException so that the CLI's
    catch-all for `Exception` lets it through."""


def main(argv):
    mode, stamp_path, spans_path, sep, *cli_args = argv
    if mode not in ("run", "probe", "trace") or sep != "--":
        raise SystemExit(f"usage: child.py run|probe|trace STAMP SPANS -- ARGS (got {argv})")
    stamps = {"mode": mode}
    t0 = time.monotonic()
    import kdvgauge.cli as cli

    stamps["import_s"] = time.monotonic() - t0

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    dispatch = cli.run_experiment

    def stamped_dispatch(spec):
        stamps["dispatch"] = time.monotonic()
        if mode == "probe":
            raise _SetupDone
        return dispatch(spec)

    cli.run_experiment = stamped_dispatch
    try:
        code = cli.main(cli_args)
    except _SetupDone:
        code = 0
    stamps["end"] = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    stamps["exit_code"] = code
    stamps["maxrss_kb"] = usage.ru_maxrss
    stamps["cpu_s"] = usage.ru_utime + usage.ru_stime
    if tracer is not None:
        tracer.dump(spans_path)
    with open(stamp_path, "w", encoding="utf-8") as fh:
        json.dump(stamps, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""One `polquat` command in a fresh interpreter, reporting its own peak memory.

    python benchmarks/child.py REPORT_OUT [--spans SPANS_OUT] -- <polquat arguments>

Runs `polquat.cli.main` exactly as `python -m polquat` would, with the
command's stdout and stderr untouched, and writes REPORT_OUT as JSON: the
exit code, the peak resident set size of this process image (VmHWM, which
unlike `ru_maxrss` does not inherit the parent's size across fork and exec),
and with --spans the per-name aggregate of the spans, which are written to
SPANS_OUT.
"""

from __future__ import annotations

import importlib
import json
import sys


def peak_rss_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list) -> int:
    report_out, *rest = argv
    spans_out = None
    if rest[:1] == ["--spans"]:
        spans_out, rest = rest[1], rest[2:]
    if rest[:1] != ["--"]:
        raise SystemExit(__doc__)
    command = rest[1:]
    cli = importlib.import_module("polquat.cli")
    report = {}
    if spans_out is None:
        code = cli.main(command)
    else:
        import spans

        if command[:1] == ["check"]:
            importlib.import_module("polquat.checks")
        tracer = spans.Tracer()
        spans.instrument(tracer)
        with tracer.op():
            code = cli.main(command)
        tracer.write(spans_out)
        report["aggregate"] = tracer.aggregate()
    sys.stdout.flush()
    report.update(code=code, peak_rss_kb=peak_rss_kb())
    with open(report_out, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""One ionnet CLI invocation, as the benchmark runs it in a fresh process.

    python3 child.py MARKS_JSON TRACE -- <ionnet arguments>

Imports ``ionnet.cli`` the way the ``ionnet`` console script does and
calls its ``main``. Three CLOCK_MONOTONIC readings go to MARKS_JSON:
after the import, when the scenario has been loaded, and when the
output files have been written. The parent process compares them with
its own reading at spawn. With TRACE = 1 the layer entry points are
wrapped first (see ``layertrace.py``) and the recorded spans are added
to MARKS_JSON. Nothing in the package is changed on disk.
"""

import sys
import time

IMPORT_MARKER = "perfbench: ionnet.cli imported"


def _mark_on_return(marks, key, fn):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        marks.setdefault(key, time.monotonic())
        return result

    return wrapper


def main(argv):
    marks_path, traced, sep, *cli_args = argv
    if sep != "--" or traced not in ("0", "1"):
        print("usage: child.py MARKS_JSON 0|1 -- ARGS...", file=sys.stderr)
        return 2
    from ionnet import cli

    marks = {"imported": time.monotonic()}
    tracer = None
    if traced == "1":
        print(IMPORT_MARKER, file=sys.stderr, flush=True)
        import layertrace

        tracer = layertrace.install()
    cli.load_scenario = _mark_on_return(marks, "loaded", cli.load_scenario)
    cli.loads_scenario = _mark_on_return(marks, "loaded", cli.loads_scenario)
    cli.write_outputs = _mark_on_return(marks, "written", cli.write_outputs)
    code = cli.main(cli_args)

    import json

    if tracer is not None:
        marks["trace"] = tracer.export()
    with open(marks_path, "w", encoding="utf-8") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

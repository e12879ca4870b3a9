"""One benchmark pass, run in a fresh interpreter by bench/run.py.

Usage: python3 bench/one_pass.py SPEC.json LAUNCHED

SPEC names the source tree, the command lines to run through
``turangap.cli.dispatch`` and where to write the result; LAUNCHED is the
``time.monotonic()`` reading run.py took just before starting this
process, so set-up time covers interpreter start-up and imports.  The pass
runs the commands in order, capturing what each prints, then writes one JSON
result.  A fresh interpreter per pass keeps library caches (such as the
occupancy buckets behind ``ladder``) cold, as they are for a CLI user.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def main() -> int:
    spec_path, launched = sys.argv[1], float(sys.argv[2])
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = spec["src"]
    sys.path.insert(0, src)
    import turangap.cli

    if not os.path.abspath(turangap.cli.__file__).startswith(os.path.join(src, "")):
        print(f"turangap imported from {turangap.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    for argv in spec["commands"] + spec["probes"]:
        os.makedirs(argv[argv.index("--out") + 1], exist_ok=True)
    setup_s = time.monotonic() - launched
    result = {"pid": os.getpid(), "setup_s": setup_s}
    if not spec["setup_only"]:
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        result.update(run(spec["commands"]))
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.layer_metrics()
        result["probes"] = [call(argv)[1] for argv in spec["probes"]]
        import numpy

        result["context"] = {
            "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
        }
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def call(argv):
    # dispatch is looked up on every call so a traced pass goes through the
    # tracer's wrapper
    dispatch = sys.modules["turangap.cli"].dispatch
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = dispatch(argv)
    return code, buf.getvalue()


def run(commands) -> dict:
    wall0, cpu0 = time.perf_counter(), time.process_time()
    outputs = [call(argv) for argv in commands]
    solve_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "solve_s": solve_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "codes": [code for code, _ in outputs],
        "stdout": [text for _, text in outputs],
    }


if __name__ == "__main__":
    sys.exit(main())

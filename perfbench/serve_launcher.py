"""Starts ``repro serve`` with the benchmark's probe (and, for the
traced run, its layer wrappers) installed in the server process.

    python3 perfbench/serve_launcher.py --out PREFIX [--layers] -- ARGS

``ARGS`` are ``repro serve`` arguments.  The probe is a callback the
server's event loop should run every ``PROBE_S``; each run records when
it ran, how late it was and the process's CPU time, which gives the
loop lag and the server's CPU use over any window.  Spans and probe
samples stay in memory and are written to ``PREFIX.*`` at exit.
"""

from __future__ import annotations

import argparse
import asyncio
import atexit
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

PROBE_S = 0.005


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--layers", action="store_true")
    args = ap.parse_args(argv[:split])
    serve_args = argv[split + 1:]

    tracer = Tracer()
    if args.layers:
        layers.install_layers(tracer, [])
    probes = array("d")  # (perf_counter, lateness_s, process_time) triples

    from repro.serve.ingress import HttpIngress

    start = HttpIngress.start

    async def start_with_probe(self) -> None:
        await start(self)
        loop = asyncio.get_running_loop()

        def tick(due: float) -> None:
            now = loop.time()
            probes.extend((time.perf_counter(), now - due, time.process_time()))
            loop.call_at(now + PROBE_S, tick, now + PROBE_S)

        loop.call_at(loop.time() + PROBE_S, tick, loop.time() + PROBE_S)

    HttpIngress.start = start_with_probe

    def write_out() -> None:
        tracer.dump(args.out)
        with open(args.out + ".probes", "wb") as fh:
            probes.tofile(fh)

    atexit.register(write_out)
    from repro.cli import main as serve_main

    return serve_main(["serve", *serve_args])


if __name__ == "__main__":
    sys.exit(main())

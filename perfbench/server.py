"""The service workload's server: a ``ShardedWarehouse`` behind ``ServiceFrontend``.

Run by the benchmark as a child process::

    python3 perfbench/server.py --docs DOCS.json [--spans SPANS.json]

It loads every ``{name: <probtree> XML}`` document of ``DOCS.json`` into
:data:`SHARDS` shard workers, starts serving on an ephemeral localhost port
and prints ``READY <port>``.  With ``--spans`` it records spans around the
layer functions.  It then reads one command per line on standard input,
answering each with ``OK``: ``reset`` drops the spans recorded so far,
``pause`` stops recording, and ``stop`` (or end of input) shuts the
front-end and the shard workers down and writes the recorded spans to
``SPANS.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

#: Shard worker processes (the machine has 2 cores).
SHARDS = 2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--docs", required=True)
    parser.add_argument("--spans")
    arguments = parser.parse_args()

    from repro.service.http import ServiceFrontend
    from repro.service.router import ShardedWarehouse
    from tracing import Tracer

    with open(arguments.docs, encoding="utf-8") as handle:
        documents = json.load(handle)
    # Installed before the documents load, so that the wrappers are in place
    # wherever the front-end and router look the traced functions up.
    tracer = Tracer().install() if arguments.spans else None
    warehouse = ShardedWarehouse(shards=SHARDS)
    try:
        for name, xml in documents.items():
            warehouse.add_document(name, xml)
        frontend = ServiceFrontend(warehouse, port=0).start()
        try:
            print(f"READY {frontend.port}", flush=True)
            for line in sys.stdin:
                command = line.strip()
                if command == "reset" and tracer is not None:
                    tracer.spans.clear()
                    tracer.counts.clear()
                elif command == "pause" and tracer is not None:
                    tracer.enabled = False
                print("OK", flush=True)
                if command == "stop":
                    break
        finally:
            frontend.stop()
    finally:
        warehouse.close()
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(arguments.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())

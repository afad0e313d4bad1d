"""Launch ``repro serve`` with the benchmark's layer wrappers installed.

    python3 -m perfbench.serve_traced --dump spans.json -- serve --port 0

Runs the unmodified service CLI in this process after wrapping the
manager, api and engine entry points (see ``perfbench.layers``).  On
shutdown (SIGINT) the recorded span rows are written to ``--dump``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from perfbench import layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", type=Path, required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = [a for a in args.serve_args if a != "--"]

    from repro.service.cli import main as serve

    layers.install_engine_layers()
    layers.install_service_layers()
    try:
        code = serve(serve_args)
    finally:
        args.dump.write_text(json.dumps(layers.ROWS))
    return code


if __name__ == "__main__":
    sys.exit(main())

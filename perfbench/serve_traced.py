"""Traced stand-in for ``repro serve``: wrap the server's layers, then serve.

Usage: ``python3 perfbench/serve_traced.py STATS_JSON [repro serve args]``.
Installs the timing wrappers of ``layers.install_server_layers`` in
this process, hands over to the public ``repro serve`` entry point, and
writes the layer totals to ``STATS_JSON`` once the server has drained
(SIGTERM). SIGUSR1 zeroes the totals and prints ``layers.RESET_LINE``, so the
caller can leave its warm-up out. Pool workers are spawned fresh and
carry no wrappers.
"""

import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(argv: list[str]) -> int:
    from layers import RESET_LINE, LayerClock, install_server_layers
    from repro.cli import main as repro_main

    stats_path, serve_args = Path(argv[0]), argv[1:]
    clock = LayerClock()
    install_server_layers(clock)

    def reset(signum, frame):
        clock.reset()
        print(RESET_LINE, flush=True)

    signal.signal(signal.SIGUSR1, reset)
    try:
        return repro_main(["serve", *serve_args])
    finally:
        stats_path.write_text(json.dumps(clock.snapshot()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Run the labelsim CLI once with every layer's public functions traced.

Usage: python3 perfbench/traced_cli.py SPANS_JSON -- <labelsim arguments>

``src`` must be on PYTHONPATH.  The spans are written to SPANS_JSON when
the CLI returns; the exit code is the CLI's.
"""

import sys
import time
from pathlib import Path

from spans import Recorder


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out, argv = Path(sys.argv[1]), sys.argv[3:]
    start = time.perf_counter()
    import labelsim.cli
    import_s = time.perf_counter() - start
    recorder = Recorder()
    wrapped = recorder.install()
    try:
        return labelsim.cli.main(argv)
    finally:
        recorder.dump(out, import_s=import_s, wrapped=wrapped)


if __name__ == "__main__":
    sys.exit(main())

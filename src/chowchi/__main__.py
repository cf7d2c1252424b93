"""The process entry of ``python -m chowchi`` and the ``chowchi`` script.

``run`` calls ``cli.main`` once and freezes the heap (``gc.freeze()``) just
before the process exits, so the interpreter's shutdown collections skip the
objects that start-up and import made; collecting them would only free
memory the operating system takes back anyway.  ``cli.main`` never freezes:
tests and library callers call it many times in one process.
"""

import gc

from .cli import main


def run() -> None:
    """Run one command and exit with its code, the heap frozen on the way out."""
    try:
        # argparse's SystemExit (--help, a usage error) leaves through here too
        raise SystemExit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()

"""Process entry point: ``python -m wergm`` and the installed ``wergm`` script."""

import gc
import sys

from .cli import main


def run() -> None:
    """Run one command and exit the process with its code.

    ``cli.main`` never freezes: in-process callers keep running after it.
    """
    try:
        sys.exit(main())
    finally:
        # Move every tracked object to the permanent generation, which no
        # collection visits.  The interpreter's exit-time collections would
        # otherwise walk and tear down everything the command imported, only
        # for the operating system to reclaim the memory: 3.5-3.8 ms of a
        # theory command and about 9.5 ms once numpy is loaded (CPython 3.11
        # on a 2-core Xeon VM).  Finalization still flushes stdout and stderr
        # and runs the atexit handlers, and every file a command writes is
        # closed before main returns.
        gc.freeze()


if __name__ == "__main__":
    run()

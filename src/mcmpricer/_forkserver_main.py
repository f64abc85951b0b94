"""Forkserver preload: import the caller's main script once, in the server.

CPython's forkserver (3.11 to 3.13) is meant to import the caller's
``__main__`` before it forks any worker, but the start data it filters never
holds the script's path, so each worker re-runs the script on every call.
``pricer._worker_environment`` hands the server that path in
``_MAIN_PATH_VAR``, and this module, the last of the server's preloads,
imports it as ``__mp_main__`` just as ``multiprocessing.forkserver.main``
does with the path it never gets.  The script's directory comes first on
``sys.path`` while it imports, as when Python runs a script, so its sibling
modules import from any working directory; the server's ``sys.path`` is
restored afterwards, and each worker still takes the caller's from
``spawn.prepare``.  A forked worker then finds ``__main__`` already set to
the script and skips the re-run.  Any exception, ``SystemExit`` included, is
swallowed: the server stays as it was and each worker re-runs the script as
before.  Only the forkserver imports this module.
"""

import os
import sys
from multiprocessing import process, spawn

from .pricer import _MAIN_PATH_VAR


def _import_main(main_path: str | None) -> None:
    if main_path is None:
        return
    saved_path = sys.path[:]
    sys.path.insert(0, os.path.dirname(main_path))
    process.current_process()._inheriting = True
    try:
        spawn.import_main_path(main_path)
    except (Exception, SystemExit):
        # each worker then re-runs the script, and reports what it raises there
        pass
    finally:
        del process.current_process()._inheriting
        sys.path[:] = saved_path


_import_main(os.environ.get(_MAIN_PATH_VAR))

"""Import every module that registers fault sites.

:func:`repro.resilience.faults.registered_sites` imports this module so
the chaos suite's "iterate the full registry" contract holds even when
the test process has not yet touched some subsystem.  Keep this list in
sync with the Failure model table in DESIGN.md §10.
"""

from . import cli  # noqa: F401  "cli.run" site
from .graph import io  # noqa: F401  "graph.parse" site
from .resilience import integrity  # noqa: F401  artifact.read/write sites
from .runtime import engine  # noqa: F401  runtime.* sites
from .serve import service  # noqa: F401  serve.* sites
from .storage import sqlite  # noqa: F401  storage.read/write sites

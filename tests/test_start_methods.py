"""One in-memory unit transport under every start method, one answer.

``--parallel`` ships each in-memory unit to its worker as the
``(gid, graph)`` list it mines: inherited under ``fork``, pickled once per
attempt under ``forkserver`` and ``spawn``.  Whatever the start method,
every unit's dump and the final dump are byte-identical to the serial
run's.  The unit dumps matter: merge-join recounts at every level, so a
worker that mined a damaged payload can still reach the right final set.
"""

from __future__ import annotations

import io
import multiprocessing

import pytest

from repro.core.partminer import PartMiner
from repro.mining.store import dump_patterns
from repro.runtime import RuntimeConfig

from .conftest import random_database

DATABASE = random_database(seed=2027, num_graphs=12, n=7, extra_edges=2)
SUPPORT = 3


def dumps(result) -> list[str]:
    """The final dump, then each unit's, of one mine."""
    texts = []
    for patterns in (result.patterns, *result.unit_results):
        out = io.StringIO()
        dump_patterns(patterns, out)
        texts.append(out.getvalue())
    return texts


@pytest.fixture(scope="module")
def serial_dumps() -> list[str]:
    return dumps(PartMiner(k=4).mine(DATABASE, SUPPORT))


@pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
def test_parallel_dump_is_the_serial_dump(method, serial_dumps):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {method!r} is not available here")
    result = PartMiner(
        k=4,
        runtime=RuntimeConfig(max_workers=2, start_method=method),
    ).mine(DATABASE, SUPPORT)
    statuses = {record.status for record in result.telemetry.units}
    assert statuses == {"ok"}, f"{method}: units did not run in workers"
    assert dumps(result) == serial_dumps

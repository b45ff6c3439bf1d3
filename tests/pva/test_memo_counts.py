"""Host-independent work counts of the schedule memos.

Wall time is too noisy to gate in tier-1, but how often the schedule
memos hit and miss on a fixed slice is a pure function of the code.  A
memo regression — a lost hit (speed) or a second memo holding the same
tables (memory) — changes these numbers on any host.
"""

from repro.api import clear_caches
from repro.experiments.grid import run_grid
from repro.params import ENV_SIM_MODE, SystemParams
from repro.pva.schedule import SCHEDULE_CACHE_SIZE, schedule_cache_info
from repro.pva.soa import soa_cache_info


def test_default_slice_memo_counts_are_pinned(monkeypatch):
    monkeypatch.delenv(ENV_SIM_MODE, raising=False)
    clear_caches()
    grid = run_grid(
        kernels=("copy", "vaxpy"),
        strides=(1, 16, 19),
        systems=("pva-sdram",),
        elements=1024,
    )
    assert len(grid.cycles) == 2 * 3 * 5
    soa = soa_cache_info()
    # The SoA path's single memo: one probe per vector broadcast.
    assert (soa.hits, soa.misses) == (1372, 1508)
    # ...and nothing underneath it: the per-bank LRU is the object
    # backend's alone.
    stride = schedule_cache_info()
    assert stride.hits + stride.misses == 0
    # Both memos hold at most the same table budget.
    params = SystemParams()
    assert soa.maxsize * params.num_banks <= SCHEDULE_CACHE_SIZE

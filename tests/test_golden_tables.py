"""Golden reproduction tests: the exact delay numbers of every table.

CPU columns vary by machine; the delay columns are deterministic and are
pinned here, every row EXPERIMENTS.md prints (the same values).  This is the
single test module to read to see the whole reproduction at a glance.
"""

import pytest

from repro.bench.table1 import run_row as table1_row
from repro.bench.table2 import run_row as table2_row
from repro.bench.table3 import run_row as table3_row

#: circuit -> (topological, hierarchical, flat).  Test ids are
#: positional, so a new row goes at the end of its table.
TABLE1_GOLDEN = {
    (8, 2): (26.0, 16.0, 16.0),
    (8, 4): (22.0, 20.0, 20.0),
    (16, 4): (42.0, 24.0, 24.0),
    (16, 8): (38.0, 36.0, 36.0),
    (16, 2): (50.0, 24.0, 24.0),
    (32, 2): (98.0, 40.0, 40.0),
    (32, 4): (82.0, 32.0, 32.0),
    (32, 8): (74.0, 40.0, 40.0),
    (48, 4): (122.0, 40.0, 40.0),
}

TABLE2_GOLDEN = {
    "c17": (3.0, 3.0, 3.0),
    "alu4": (14.0, 14.0, 14.0),
    "cla8": (4.0, 4.0, 4.0),
    "cmp8": (10.0, 10.0, 10.0),
    "rnd2": (18.0, 13.0, 13.0),
    "gfp": (8.0, 4.0, 2.0),
    "csaflat8": (26.0, 26.0, 16.0),
}

TABLE3_GOLDEN = {
    "alu8": (22.0, 22.0, 22.0),
    "bshift8": (6.0, 6.0, 6.0),
    "csel8.2": (12.0, 12.0, 12.0),
    "mul4x4": (21.0, 21.0, 20.0),
    "mul5x5": (29.0, 29.0, 28.0),
    "wal4x4": (19.0, 19.0, 18.0),
    "wal5x5": (25.0, 25.0, 25.0),
    "bshift16": (8.0, 8.0, 8.0),
    "csel12.3": (14.0, 14.0, 14.0),
}


@pytest.mark.parametrize("nm,golden", list(TABLE1_GOLDEN.items()))
def test_table1_delays(nm, golden):
    row = table1_row(*nm)
    assert (
        row.topological_delay,
        row.hierarchical_delay,
        row.flat_delay,
    ) == golden


@pytest.mark.parametrize("name,golden", sorted(TABLE2_GOLDEN.items()))
def test_table2_delays(name, golden):
    row = table2_row(name)
    assert (
        row.topological_delay,
        row.hierarchical_delay,
        row.flat_delay,
    ) == golden


@pytest.mark.parametrize("name,golden", list(TABLE3_GOLDEN.items()))
def test_table3_delays(name, golden):
    row = table3_row(name)
    assert (
        row.topological_delay,
        row.hierarchical_delay,
        row.flat_delay,
    ) == golden


def test_figures_golden():
    from repro.bench.figures import compute_figures

    data = compute_figures()
    assert data.fig4_tmp == 8.0
    assert data.fig4_c4 == 10.0
    assert data.fig5_cout == 8.0
    assert data.fig5_functional_slack == 1.0
    assert data.fig5_topological_slack == -3.0

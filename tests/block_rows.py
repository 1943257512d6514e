"""Per-row views of the lab's column records, for tests that read or build
single rows: the replicates of scenario blocks, index sets from their rows
(oracles.IndexRow), and the battery of one design's count table."""

from dataclasses import dataclass

import numpy as np

from oracles import IndexRow
from snt_lab.cells import DESIGN_CAL, DESIGN_SPT
from snt_lab.designs import DescribeRow, IndexSet, count_table
from snt_lab.estimators import AnalysisResult, battery_block

#: IndexSet's columns after its design, with the dtypes the designs build
INDEX_DTYPES = (np.int64, np.int8, np.int8, bool, np.int16, bool, bool, np.int8)


@dataclass
class ReplicateRows:
    scenario_id: str
    replicate: int
    analyses: list[AnalysisResult]
    descriptives: list[DescribeRow]


def replicate_rows(blocks) -> list[ReplicateRows]:
    """One ReplicateRows per row of the blocks, in order, with plain Python
    values."""
    return [
        ReplicateRows(
            block.scenario_id, replicate, block.analyses.results(r), block.descriptives.rows(r)
        )
        for block in blocks
        for r, replicate in enumerate(block.replicates.tolist())
    ]


def index_set(design: str, rows) -> IndexSet:
    """The index set of a list of IndexRows, one index per row."""
    columns = [[row[field] for row in rows] for field in range(len(INDEX_DTYPES))]
    return IndexSet(design, *(np.array(c, dtype=t) for c, t in zip(columns, INDEX_DTYPES)))


def cal_rows(table, target=(0.5, 0.5)) -> dict[str, AnalysisResult]:
    """The battery's eSNT-CAL rows, by analysis, of one count table: the
    crude contrast, the standardizations to the table's own index
    populations (ate_snt, att_snt) and to target (ate_spt), target being the
    severity shares of an SPT table of 20 indexes, so multiples of 0.05."""
    n_high = round(20 * target[1])
    spt = index_set(DESIGN_SPT, [
        IndexRow(i, 1, int(i < n_high), False, 2, False, False, 0) for i in range(20)
    ])
    none = np.zeros(1, dtype=np.int64)
    results = battery_block((count_table(spt), table, table), (none, none), 1).results(0)
    return {r.analysis: r for r in results if r.design == DESIGN_CAL}

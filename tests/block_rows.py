"""The replicates of a scenario block as per-replicate rows, for tests that
read single replicates."""

from dataclasses import dataclass

from snt_lab.designs import DescribeRow
from snt_lab.estimators import AnalysisResult


@dataclass
class ReplicateRows:
    scenario_id: str
    replicate: int
    analyses: list[AnalysisResult]
    descriptives: list[DescribeRow]


def replicate_rows(block) -> list[ReplicateRows]:
    """One ReplicateRows per row of the block, with plain Python values."""
    return [
        ReplicateRows(
            block.scenario_id, replicate, block.analyses.results(r), block.descriptives.rows(r)
        )
        for r, replicate in enumerate(block.replicates.tolist())
    ]

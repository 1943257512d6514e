"""The replicates of a scenario block as rows of the per-replicate
reference (estimators.battery, designs.describe_tables), for tests that
compare the two or read single replicates."""

from dataclasses import dataclass

from snt_lab.designs import DESCRIBE_LABELS, DescribeRow
from snt_lab.estimators import ANALYSIS_LABELS, AnalysisResult


@dataclass
class ReplicateRows:
    scenario_id: str
    replicate: int
    analyses: list[AnalysisResult]
    descriptives: list[DescribeRow]


def replicate_rows(block) -> list[ReplicateRows]:
    """One ReplicateRows per row of the block, with plain Python values."""
    a, d = block.analyses, block.descriptives
    analyses = [c.tolist() for c in (a.risk_treated, a.risk_untreated, a.rr, a.log_rr,
                                     a.n_treated, a.n_untreated, a.degenerate)]
    describe = [c.tolist() for c in (d.n_people, d.n_indexes, d.pct_high,
                                     d.avg_indexes_per_person)]
    return [
        ReplicateRows(
            block.scenario_id,
            replicate,
            [AnalysisResult(*label, *(c[r][j] for c in analyses))
             for j, label in enumerate(ANALYSIS_LABELS)],
            [DescribeRow(*label, *(c[r][j] for c in describe))
             for j, label in enumerate(DESCRIBE_LABELS)],
        )
        for r, replicate in enumerate(block.replicates.tolist())
    ]

"""The small files' line makers on edge values: each line holds exactly the
text that formatting every value on its own gives ('nan' for any NaN, '-0',
'1e-07', '123456' for 123456.5, '1' and '0' for True and False, and an
integer pi as written), as the golden cases, which hold only the values
they happen to produce, cannot show."""

import struct

from snt_lab import output
from snt_lab.cells import DescriptiveSummaryRow, MetricsRow
from snt_lab.config import builtin_scenarios
from snt_lab.hazards import HazardSet, SolveReport, TruthEntry

NAN = float("nan")
INF = float("inf")
#: the NaN that x86 arithmetic makes, with its sign bit set
NEG_NAN = struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000000))[0]

#: S1 and S2 with the integer pi a JSON --config can give
SPECS = [spec._replace(progression_prob=pi) for spec, pi in zip(builtin_scenarios(), (0, 1))]

SUMMARY = [
    MetricsRow("S1", "SPT", "crude", "none", NAN, INF, -INF, -0.0, 1e-07, 0),
    MetricsRow("S2", "eSNT-TD", "att_snt", "snt_treated", 123456.5, -0.0, NEG_NAN, 1e-07, INF,
               5000),
]


def test_hazards_lines():
    reports = {
        "S1": SolveReport(HazardSet(NAN, INF, -INF, -0.0), (1e-07, -123456.5, 0.0, 0.0), True),
        "S2": SolveReport(HazardSet(1e-07, 123456.5, NEG_NAN, 0.5), (0.0, -0.0, 0.0, 0.0), False),
    }
    assert output.hazards_lines(SPECS, reports) == [
        "S1,0,nan,inf,-inf,-0,123456,1\n",
        "S2,1,1e-07,123456,nan,0.5,0,0\n",
    ]


def test_truth_lines():
    truths = {"S1": TruthEntry(NAN, INF, -INF, -0.0), "S2": TruthEntry(1e-07, 123456.5, NEG_NAN, 0.5)}
    assert output.truth_lines(SPECS, truths) == [
        "S1,0,marginal,nan,inf,-inf,-0\n",
        "S1,0,std_spt_all,nan,inf,-inf,-0\n",
        "S1,0,std_spt_treated,nan,inf,-inf,-0\n",
        "S2,1,marginal,1e-07,123456,nan,0.5\n",
        "S2,1,std_spt_all,1e-07,123456,nan,0.5\n",
        "S2,1,std_spt_treated,1e-07,123456,nan,0.5\n",
    ]


def test_summary_lines():
    assert output.summary_lines(SUMMARY) == [
        "S1,SPT,crude,none,nan,inf,-inf,-0,1e-07,0\n",
        "S2,eSNT-TD,att_snt,snt_treated,123456,-0,nan,1e-07,inf,5000\n",
    ]


def test_figure_lines():
    assert output.figure_lines(SUMMARY, output.FIGURE_ATE_TARGETS) == [
        "S1,SPT,crude,inf,-inf\n",
    ]
    assert output.figure_lines(SUMMARY, output.FIGURE_ATT_TARGETS) == [
        "S1,SPT,crude,inf,-inf\n",
        "S2,eSNT-TD,snt,-0,nan\n",
    ]


def test_describe_summary_lines():
    rows = [
        DescriptiveSummaryRow("S3", "eSNT-CAL", "initiator-person", "high", "pct_high",
                              NAN, -0.0, INF),
        DescriptiveSummaryRow("S4", "SPT", "all", "low", "n_people", 123456.5, 1e-07, -INF),
    ]
    assert output.describe_summary_lines(rows) == [
        "S3,eSNT-CAL,initiator-person,high,pct_high,nan,-0,inf\n",
        "S4,SPT,all,low,n_people,123456,1e-07,-inf\n",
    ]

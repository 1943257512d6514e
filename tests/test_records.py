"""The lab's records: settings, hazards, truths and count tables cannot be
assigned; cohorts and index sets count their persons and indexes; a run's
settings survive a pickle round trip."""

import pickle

import numpy as np
import pytest

from snt_lab.config import RunConfig, builtin_scenarios
from snt_lab.designs import IndexSet, count_table
from snt_lab.hazards import enumerate_truth, solve
from snt_lab.population import Cohort


def index_set():
    return IndexSet(
        design="SPT",
        person_id=np.array([0, 1, 1], dtype=np.int64),
        index_visit=np.array([1, 1, 2], dtype=np.int8),
        severity_at_index=np.array([0, 1, 1], dtype=np.int8),
        treated=np.array([True, False, False]),
        futime=np.array([2, 1, 2], dtype=np.int16),
        event=np.array([False, False, True]),
        censored=np.array([False, True, False]),
        severity_next=np.array([0, 1, 1], dtype=np.int8),
    )


def record(name):
    """One record of the named type, and one of its fields."""
    spec = builtin_scenarios()[1]
    report = solve(spec)
    return {
        "ScenarioSpec": (spec, "delta"),
        "RunConfig": (RunConfig(), "n_replicates"),
        "HazardSet": (report.hazards, "p00"),
        "SolveReport": (report, "feasible"),
        "TruthEntry": (enumerate_truth(spec, report.hazards), "rr"),
        "CountTable": (count_table(index_set()), "counts"),
    }[name]


@pytest.mark.parametrize("name", [
    "ScenarioSpec", "RunConfig", "HazardSet", "SolveReport", "TruthEntry", "CountTable",
])
def test_records_cannot_be_assigned(name):
    rec, field = record(name)
    with pytest.raises(AttributeError):
        setattr(rec, field, getattr(rec, field))


def test_len_counts_persons_and_indexes():
    cohort = Cohort.from_arrays(
        severity=np.zeros((4, 3)), decision2=np.ones(4), po=np.zeros((4, 3, 2))
    )
    assert len(cohort) == 4
    assert len(cohort.take(np.array([0, 0, 3]))) == 3
    assert len(index_set()) == 3


def test_settings_survive_a_pickle_round_trip():
    spec = builtin_scenarios()[3]
    run = RunConfig(n_individuals=200, superpop=1000, truth_override=0.7)
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert pickle.loads(pickle.dumps(run)) == run

"""snt_lab: a deterministic simulation laboratory for comparing sequential
nested trial emulations against a single point trial.

The pipeline: calibrate per-visit outcome probabilities to two-year risk
targets, generate cohorts with per-visit potential outcomes, build the
single-point and the two sequential-nested index datasets, estimate
censoring-weighted and severity-standardized risk ratios, and score every
estimator against an exactly enumerated truth.

Importing the package loads none of its modules; import each name from the
module that defines it. Only the engine (population, designs, estimators,
harness) needs numpy.
"""

__version__ = "0.1.0"

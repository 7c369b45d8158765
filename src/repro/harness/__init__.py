"""Experiment harness: calibrated profiles, topologies, and every
table/figure of the paper as a registered experiment
(:func:`repro.harness.executor.run_experiment`)."""

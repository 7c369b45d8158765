"""Fault injection: one plan of crashes, tap loss and channel partitions
(:mod:`repro.faults.injection`)."""

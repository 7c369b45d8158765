"""The ``scale`` record is content-hashed into the result store, so every
field — including the ``bytes_per_tcb`` host-footprint figure the golden
digest leaves out — must be a pure function of the cell, not of the
interpreter's string-hash salt."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness.executor import run_experiment
from repro.harness.experiments.churn import deep_size
from repro.net.addresses import IPAddress, MACAddress

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.mark.parametrize(
    "address", [IPAddress("10.0.0.100"), MACAddress("02:00:00:00:00:01")], ids=["ip", "mac"]
)
def test_deep_size_ignores_the_cached_address_hash(address):
    """``sys.getsizeof(int)`` grows with magnitude and the cached hash is
    salted, so a walk that followed ``_hash`` would vary per process."""
    address._hash = 1
    small = deep_size(address)
    address._hash = 2**62
    assert deep_size(address) == small


class _Plain:
    def __init__(self):
        self.first = 2**40
        self.second = "x" * 100


class _Slotted:
    __slots__ = ("first", "second")

    def __init__(self):
        self.first = 2**40
        self.second = "x" * 100


def test_deep_size_charges_the_instance_dict():
    """``sys.getsizeof(obj)`` stops at the object header: an un-slotted
    class must pay for its ``__dict__``, or slotting one looks like a loss."""
    plain, slotted = _Plain(), _Slotted()
    values = sys.getsizeof(plain.first) + sys.getsizeof(plain.second)
    assert deep_size(plain) >= sys.getsizeof(plain) + sys.getsizeof(plain.__dict__) + values
    assert deep_size(slotted) == sys.getsizeof(slotted) + values
    assert deep_size(slotted) < deep_size(plain)


_RUNG = (
    "import repro.harness.experiments;"
    "from repro.harness.executor import run_experiment;"
    "from repro.harness.results import canonical_json;"
    "rung = run_experiment('scale', ladder=(25,), store=None, base_seed=77).rows[0];"
    "print(canonical_json(rung))"
)


def _rung_record(hash_seed):
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed}
    done = subprocess.run(
        [sys.executable, "-c", _RUNG], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def test_scale_rung_record_is_identical_across_hash_seeds():
    """Two interpreters with different string-hash salts (what ``--jobs N``
    spawn workers are to each other) produce the byte-identical record,
    ``bytes_per_tcb`` included."""
    record = _rung_record("0")
    assert '"bytes_per_tcb"' in record
    assert record == _rung_record("3")


def test_a_five_hundred_connection_rung_leaves_nothing_behind():
    """Big enough that a linear scan on the backup's per-segment path, or
    a TCB the reaper misses, shows (docs/SCALE.md)."""
    (record,) = run_experiment("scale", ladder=(500,), store=None).rows
    assert record["verified"], record["failures"]
    assert record["degraded"] == 0
    assert record["leftover_shadows"] == 0
    assert record["leftover_backup_tcbs"] == 0

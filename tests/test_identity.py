"""The bit-identity harness in ``identity.py`` on two small banks: a run
against its own tree is clean, and a one-ulp change to one output is
reported by name."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import identity

BANKS = ["gabor_nonpainless", "random_one_sided"]
ROOT = Path(identity.__file__).resolve().parents[1]


def test_run_against_own_tree_is_clean():
    done = subprocess.run(
        [sys.executable, identity.__file__, "--banks", ",".join(BANKS), "--against", str(ROOT)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.endswith(": 0 differ\n")


def test_one_ulp_change_is_reported_by_name():
    values = [(name, value) for bank in BANKS for name, value in identity.evaluate(bank)]
    ours = [identity.record(name, value) for name, value in values]
    assert len({r["output"] for r in ours}) == len(ours)  # names are unique
    assert identity.differences(ours, [identity.record(*item) for item in values]) == []

    changed = "random_one_sided.walnut_apply.complex"
    perturbed = []
    for name, value in values:
        if name == changed:
            value = value.copy()
            value.real[7] = np.nextafter(value.real[7], np.inf)
        perturbed.append(identity.record(name, value))
    assert identity.differences(ours, perturbed) == [changed]


def test_signed_zero_changes_the_hash():
    assert identity.raw(np.array([0.0])) != identity.raw(np.array([-0.0]))
    assert identity.raw(0.0) != identity.raw(-0.0)
    assert identity.raw(ValueError("a")) == identity.raw(ValueError("b"))

"""Seeds of the identity suite that once failed, kept beside the acceptance seed."""
from __future__ import annotations

import pytest

from pseudoeuclid.selftest import run_selftest


@pytest.mark.parametrize("seed, n", [(0, 10_000), (61, 300), (135, 300), (278, 300)])
def test_formerly_failing_seeds_pass(seed, n):
    report = run_selftest(seed, n)
    assert report["ok"], report["failed"]

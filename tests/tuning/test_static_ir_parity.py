"""Static≡IR property: over strided full spaces of the 12-operator suite
on A100, V100 and H100, the timing spec every trial measures (derived
from the config) equals the spec extracted from the kernel the compiler
builds, on every field; configs fail on both paths or on neither, with
the same error class. ``tests/tuning/static_ir_parity.py`` runs the same
walk over every config."""

import pytest

from repro.gpusim import A100, H100, V100

from .static_ir_parity import differing_fields, parity_cases


@pytest.mark.parametrize("gpu", [A100, V100, H100], ids=["a100", "v100", "h100"])
def test_static_spec_equals_ir_spec(gpu):
    n = 0
    for label, static, ir in parity_cases(gpu):
        n += 1
        assert not differing_fields(static, ir), (label, static, ir)
    assert n > 500

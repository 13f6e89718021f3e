"""Golden-digest gate: the wave simulator's outputs over strided full
spaces of the 12-op suite on A100/V100/H100 must stay bit-for-bit what
the generator-based engine produced (see ``wave_digest.py``)."""

from repro.gpusim import engine

from .wave_digest import GOLDEN_WAVE_DIGEST, compute_digest


def test_wave_and_kernel_outputs_match_golden_digest():
    assert compute_digest(engine.simulate_wave, engine.simulate_kernel) == GOLDEN_WAVE_DIGEST

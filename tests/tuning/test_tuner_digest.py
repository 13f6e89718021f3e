"""Golden-digest gate: both boosted-tree tuners must produce the same tuning
histories, bit for bit, as the node-object GBT did.

The digest covers, per (tuner, op, seed, GPU): every trial's config key and
latency in order, and the final cost model's predictions over the measured
configs. A change in any split, leaf value, float sum or RNG draw on the
tuner path moves it. ``GOLDEN_TUNER_DIGEST`` was generated with the
node-object GBT (``reference_gbt.py``) and the dataclass-replace SA
neighbour walk.
"""

import hashlib

import numpy as np

from repro.gpusim import A100, V100
from repro.tuning import Measurer, enumerate_space
from repro.tuning.tuners import ModelAssistedXGBTuner, XGBTuner
from repro.workloads import get_operator

OPS = ("MM_BERT_FC1", "BMM_BERT_QK", "Conv_RN50_3x3")
SEEDS = (0, 1)
GPUS = (A100, V100)
#: Three measurement rounds of 16: two model refits plus the pretraining
#: fit of the model-assisted tuner.
TRIALS = 48
GOLDEN_TUNER_DIGEST = "1cc880b0d4438e7a"


def tuner_digest() -> str:
    h = hashlib.sha256()
    for cls in (XGBTuner, ModelAssistedXGBTuner):
        for op in OPS:
            spec = get_operator(op)
            for gpu in GPUS:
                space = enumerate_space(spec, gpu)
                for seed in SEEDS:
                    tuner = cls(spec, space, measurer=Measurer(gpu), gpu=gpu, seed=seed)
                    history = tuner.tune(TRIALS)
                    configs = [r.config for r in history.records]
                    h.update(repr([(c.key(), r.latency_us.hex())
                                   for c, r in zip(configs, history.records)]).encode())
                    pred = tuner.model.predict(tuner._features(configs))
                    h.update(np.ascontiguousarray(pred, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def test_tuning_histories_match_golden_digest():
    assert tuner_digest() == GOLDEN_TUNER_DIGEST

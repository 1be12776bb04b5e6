import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from grumpc import gru_model, plant_sim


def zero_weights(n, m, p):
    """A model whose every weight and bias is zero."""
    return gru_model.GruWeights(
        n=n, m=m, p=p,
        W_z=np.zeros((n, m)), U_z=np.zeros((n, n)), b_z=np.zeros(n),
        W_f=np.zeros((n, m)), U_f=np.zeros((n, n)), b_f=np.zeros(n),
        W_r=np.zeros((n, m)), U_r=np.zeros((n, n)), b_r=np.zeros(n),
        U_o=np.zeros((p, n)), b_o=np.zeros(p))


def scaled_certified_weights(rng, n=4, p=1, target=-0.05, keep_output=True):
    """Random weights scaled until the stability residual drops below target.

    Bisection on a single scale factor applied to every array; the output
    map is restored afterwards (it does not enter the residual).
    """
    w = gru_model.random_weights(n, p, p, rng)
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        cand = gru_model.GruWeights(
            n=n, m=p, p=p,
            **{k: mid * getattr(w, k) for k in gru_model.WEIGHT_FIELDS})
        if gru_model.diss_residual(cand) < target:
            lo = mid
        else:
            hi = mid
    cand = gru_model.GruWeights(
        n=n, m=p, p=p,
        **{k: lo * getattr(w, k) for k in gru_model.WEIGHT_FIELDS})
    if keep_output:
        cand = cand.replace(U_o=w.U_o, b_o=w.b_o)
    return cand


def scipy_modules_after(code):
    """The scipy modules a fresh interpreter holds after running code, with
    src/ and tests/ on its path."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(here.parent / "src"), str(here)]))
    code += ("\nimport json, sys\nprint(json.dumps(sorted("
             "m for m in sys.modules if m.split('.')[0] == 'scipy')))\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=300, env=env, check=True)
    return json.loads(res.stdout.splitlines()[-1])


@pytest.fixture(scope="session")
def ph_params():
    return plant_sim.default_params()

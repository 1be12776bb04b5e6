"""Audit of the terminal set off the radius walk's samples.

For each setpoint it builds the controller's ingredients on the benchmark's
pinned model (desk controller settings) and tests the auxiliary law on
points the walk never saw: boundary points e'P_f e = omega and interior
points of the set, on directions from np.random.RandomState(1) (the walk
draws its own from RandomState(0)).  Per setpoint it reports omega, the
exact input-box radius, the radii the walk tried, and for each point set
the count of points whose law input leaves the box, whose V_f decrease
V_f(phi_a(e)) - V_f(e) + e'Q_lq e is positive, and whose successor leaves
the set, with the largest decrease left-hand side.  It asserts nothing:
the walk's samples are no certificate of the whole set (ROADMAP item L).

    PYTHONPATH=src python tests/terminal_audit.py --directions 400000 > audit.json

Each block of BLOCK points draws its Gaussian directions, then its interior
radii (uniform in volume), from the one stream, so a run needs no more
memory than a block.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from grumpc import gru_model, harness, kernels, mpc, sysid

FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixture"
# pH 6.5 to 8.0 in steps of 0.05
SETPOINTS = tuple(np.round(np.arange(6.5, 8.0 + 1e-9, 0.05), 2).tolist())
BLOCK = 4096


def _quad(E, M):
    return np.einsum("ij,jk,ik->i", E, M, E)


def omega_box(ing, n):
    """min_j (1 - |u_eq,j|)^2 / c_j'P_f^-1 c_j, C = [0 I] - K, by a linear
    solve rather than the walk's Cholesky inverse."""
    p = len(ing.K_lq)
    C = np.hstack((np.zeros((p, n)), np.eye(p))) - ing.K_lq
    spread = np.einsum("ij,ij->j", C.T, np.linalg.solve(ing.P_f, C.T))
    return float(np.min((1.0 - np.abs(ing.eq.u0)) ** 2 / spread))


def radii_tried(ing, box):
    """The walk's radii, omega_trials of them: from min(OMEGA_MAX, omega_box)
    down by TERMINAL_SHRINK (the rejected ones to rounding, as omega_box is
    solved here), then the accepted omega."""
    radii = [min(mpc.OMEGA_MAX, box)]
    while len(radii) < ing.omega_trials - 1:
        radii.append(radii[-1] * mpc.TERMINAL_SHRINK)
    return radii[:ing.omega_trials - 1] + [ing.omega]


def check_points(w, ing, E):
    """Per point of E (rows e): the law input leaves the box, the V_f
    decrease fails, the successor leaves the set; and the decrease's
    left-hand side."""
    xa_eq = ing.eq.xa0
    E_next = kernels.augmented_rollout(ing.consts.step, xa_eq + E, (), 1)[0][1] - xa_eq
    u = xa_eq[w.n:] + E[:, w.n:] - E @ ing.K_lq.T
    level_next = _quad(E_next, ing.P_f)
    vf = level_next - _quad(E, ing.P_f) + _quad(E, ing.Q_lq)
    return (np.max(np.abs(u), axis=1) > 1.0, vf > 0.0, level_next > ing.omega), vf


def audit(w, ing, directions, seed=1):
    """Failure counts on `directions` boundary and as many interior points."""
    na = len(ing.P_f)
    L = np.linalg.cholesky(ing.P_f)
    rs = np.random.RandomState(seed)
    out = {where: {"box": 0, "vf": 0, "leave": 0, "max_vf": -np.inf}
           for where in ("boundary", "interior")}
    for lo in range(0, directions, BLOCK):
        d = rs.standard_normal((min(BLOCK, directions - lo), na))
        d /= np.linalg.norm(d, axis=1)[:, None]
        E = np.sqrt(ing.omega) * np.linalg.solve(L.T, d.T).T      # e'P_f e = omega
        scale = rs.uniform(0.0, 1.0, len(d)) ** (1.0 / na)
        for where, pts in (("boundary", E), ("interior", E * scale[:, None])):
            fails, vf = check_points(w, ing, pts)
            rec = out[where]
            for name, f in zip(("box", "vf", "leave"), fails):
                rec[name] += int(np.sum(f))
            rec["max_vf"] = max(rec["max_vf"], float(np.max(vf)))
    return out


def pinned():
    w = gru_model.load_weights(FIXTURE / "weights.json")
    nmap = sysid.NormalizationMap.load(FIXTURE / "normalization.json")
    return w, nmap


def run(setpoints=SETPOINTS, directions=400000):
    w, nmap = pinned()
    cfg = harness.ExperimentConfig().controller
    table = []
    for ph in setpoints:
        ing = mpc.build_ingredients(w, nmap.normalize_y([ph]), cfg)
        box = omega_box(ing, w.n)
        table.append({"ph": ph, "omega": ing.omega, "omega_box": box,
                      "omega_trials": ing.omega_trials,
                      "radii_tried": radii_tried(ing, box),
                      "directions": directions, **audit(w, ing, directions)})
    return table


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--directions", type=int, default=400000)
    ap.add_argument("--ph", type=float, nargs="*", default=list(SETPOINTS))
    args = ap.parse_args(argv)
    json.dump(run(args.ph, args.directions), sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()

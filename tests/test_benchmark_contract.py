"""What the benchmark under perfbench/ reads of the package.

perfbench wraps functions by name (layers.instrument), calls a few kernels
by position (cases.py) and counts work from their positional arguments
(layers.py).  A refactor that renames one of them or moves an argument
breaks the traced benchmark; these tests name the break.
"""

import inspect
from pathlib import Path

from grumpc import kernels, mpc

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def positional(fn):
    return [p.name for p in inspect.signature(fn).parameters.values()
            if p.kind is p.POSITIONAL_OR_KEYWORD]


class RecordingTracer:
    """Stands in for spans.Tracer: records what instrument() would wrap."""

    def __init__(self):
        self.wrapped = []

    def wrap(self, owner, name, label, count=None):
        self.wrapped.append((owner, name, label))


def test_every_function_the_benchmark_wraps_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    tracer = RecordingTracer()
    layers.instrument(tracer)
    assert len(tracer.wrapped) > 30
    missing = [label for owner, name, label in tracer.wrapped
               if not callable(getattr(owner, name, None))]
    assert not missing, f"perfbench/layers.py wraps functions that are gone: {missing}"
    assert hasattr(kernels, "NUMBA_ENABLED")     # perfbench records the backend


def test_the_kernels_the_benchmark_calls_by_position_keep_their_arguments():
    # layers.py reads (Nc, Np, Nf, mu_box, mu_term) as args[-5:], the clamp's
    # Np as args[-1], the terminal samples as args[0], the rollout moves as
    # args[1]; cases.py passes 27 positional arguments to the FHOCP kernel
    tail = ["Nc", "Np", "Nf", "mu_box", "mu_term"]
    for fn in (kernels.fhocp_forward, kernels.fhocp_forward_backward):
        assert positional(fn)[-5:] == tail, fn.__name__
        assert len(positional(fn)) == 27, fn.__name__
    assert positional(kernels.fhocp_clip_restore)[-1] == "Np"
    assert positional(kernels.terminal_samples_check)[0] == "E"
    assert positional(kernels.augmented_rollout_cached)[1] == "V"
    assert positional(kernels.gru_rollout)[1] == "useq"
    assert positional(kernels.tbptt_loss_grad_batch)[0] == "Ub"
    # cases.py builds the terminal cost with lq_gain(lin, Q, R) and
    # lyapunov_Pi(lin, K, Q_tilde)
    assert positional(mpc.lq_gain) == ["lin", "Q", "R"]
    assert positional(mpc.lyapunov_Pi) == ["lin", "K_lq", "Q_tilde"]


def test_the_controller_config_keeps_the_terminal_horizon():
    # perfbench/cases.py passes ctl.N_f to the FHOCP kernel
    assert "N_f" in inspect.signature(mpc.ControllerConfig).parameters

"""The benchmark's tracer (bench/tracer.py) patches riseq by module and
attribute name. A renamed function or a dropped import in riseq would
otherwise show only in a traced benchmark run; these checks catch it in
seconds."""

from pathlib import Path

from riseq import agents, arise, channels, env, experiments

BENCH = Path(__file__).resolve().parents[1] / "bench"

# name -> (the module that defines it, the modules the tracer patches it in)
HOOKS = {
    "received_pulse": (channels, (env, arise)),
    "pulse_objective": (env, (env, arise, agents, experiments)),
    "pulse_objective_norm": (env, (env, arise, experiments)),
    "sample_channels": (channels, (env,)),
    "matrix_sqrt_psd": (channels, (channels,)),
}


def test_hooked_names_stay_bound():
    for name, (home, users) in HOOKS.items():
        for module in users:
            assert getattr(module, name, None) is getattr(home, name), \
                f"{module.__name__}.{name} is not {home.__name__}.{name}"


def test_tracer_installs_and_restores_every_original(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import RiseqTracer

    tracer = RiseqTracer()
    try:
        tracer.install()  # a missing name fails here; finally undoes the rest
        patched = list(tracer._patched)
        for name, (_, users) in HOOKS.items():
            for module in users:
                assert hasattr(getattr(module, name), "__wrapped__"), \
                    f"{module.__name__}.{name} is not traced"
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, f"{owner.__name__}.{attr} was not restored"

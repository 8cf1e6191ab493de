import functools
import inspect
import os
import sys
import threading

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from spikecal import calibrate, engine, nn, store, train  # noqa: E402


@pytest.fixture(scope="session")
def blob_dataset():
    return store.make_synthetic("blobs", 400, seed=11, classes=4, dim=32)


@pytest.fixture(scope="session")
def trained_mlp(blob_dataset):
    """A small net trained to saturation on well-separated blobs."""
    model = nn.build_mlp(32, [32, 16], 4, seed=11)
    trained = train.train_reference(model, blob_dataset, epochs=15, lr=0.05, seed=11)
    acc = train.accuracy(trained, blob_dataset.images, blob_dataset.labels)
    assert acc >= 0.99, f"fixture net failed to train (accuracy {acc})"
    return trained


@pytest.fixture(scope="session")
def calibration(trained_mlp, blob_dataset):
    return store.build_calibration_cache(trained_mlp, blob_dataset, 96, seed=5)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


def _random_net(arch: str, seed: int, n: int = 6, widths=None):
    """A small untrained MLP or CNN, a calibration cache of ``n`` inputs, and
    fitted thresholds with random burst caps and compression ratios.
    ``widths``, when given, are the hidden widths or channels to use in place
    of random ones."""
    rng = np.random.default_rng(seed)
    if arch == "mlp":
        dim = int(rng.integers(3, 9))
        hidden = [int(w) for w in rng.integers(2, 7, size=int(rng.integers(1, 4)))]
        model = nn.build_mlp(dim, widths or hidden, 3, seed=seed)
        shape = (dim,)
    else:
        channels = [int(c) for c in rng.integers(1, 4, size=int(rng.integers(1, 3)))]
        model = nn.build_cnn((1, 6, 6), widths or channels, 3, seed=seed)
        shape = (1, 6, 6)
    images = rng.standard_normal((n, *shape)).astype(np.float32)
    data = store.DatasetHandle(images=images, labels=rng.integers(0, 3, size=n))
    cache = store.build_calibration_cache(model, data, n, seed=seed)
    configs = [
        engine.LayerSnnConfig(
            v_th=f.v_th, rho=int(rng.integers(1, 3)), phi=int(rng.integers(1, 4))
        )
        for f in calibrate.fit_all_thresholds(model, cache, timesteps=4)
    ]
    return model, cache, configs


@pytest.fixture()
def random_net():
    """``random_net(arch, seed[, n, widths])`` -> (model, calibration cache, configs)."""
    return _random_net


def _injected_charge(model, run, batch, timesteps):
    """Each spiking layer's input current summed over ``timesteps`` steps.

    Replays the feeder layers with ``nn.apply_layer``: the first spiking
    layer's on the constant batch, each later one's on the train ``run``
    recorded for the spiking layer before it.
    """
    x0 = np.asarray(batch, dtype=np.float64)
    charge, begin, prev = {}, 0, None
    for idx in engine.spiking_layer_indices(model):
        total = np.zeros(())
        for t in range(timesteps):
            h = x0 if prev is None else run.trains[prev].amplitudes(t)
            for layer in model.layers[begin:idx]:
                h = nn.apply_layer(layer, h)
            total = total + h
        charge[idx], begin, prev = total, idx + 1, idx
    return charge


@pytest.fixture()
def injected_charge():
    """``injected_charge(model, run, batch, timesteps)`` -> {spiking layer: summed current}."""
    return _injected_charge


def _thread_log(monkeypatch, modules, private=()):
    """Wrap every public function of ``modules``, and each function in
    ``private``, rebinding the wrapper in every ``spikecal`` module that
    holds the original; returns the list each call appends its
    ``(module.name, thread ident)`` to."""
    calls = []

    def recorded(fn, name):
        def wrapper(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapper

    names = {
        obj: f"{mod.__name__.rpartition('.')[2]}.{attr}"
        for mod in modules
        for attr, obj in vars(mod).items()
        if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__
    }
    names.update({fn: f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}" for fn in private})
    wrappers = {fn: recorded(fn, name) for fn, name in names.items()}
    for modname, module in list(sys.modules.items()):
        if modname.startswith("spikecal"):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    monkeypatch.setattr(module, attr, wrappers[obj])
    return calls


@pytest.fixture()
def thread_log(monkeypatch):
    """``thread_log(modules, private=())`` -> the (name, thread ident) of
    every later call of a public function of ``modules`` or of ``private``."""
    return functools.partial(_thread_log, monkeypatch)

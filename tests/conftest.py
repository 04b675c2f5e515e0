import numpy as np
import pytest

from sunac import codec


@pytest.fixture(scope="session")
def tiny_config():
    """Full SUNAC topology at toy widths; real strides, so frame arithmetic
    and every shape contract match the default model."""
    return codec.ModelConfig(
        arch_family="SUNAC",
        enc_base_dim=4,
        dec_base_dim=32,
        latent_dim=16,
        transformer_hidden=16,
        n_heads=2,
        ff_dim=24,
        n_dec_transformer=2,
        n_codebooks=4,
        codebook_size=32,
        code_dim=4,
        seed=11,
    )


def _drawn(store):
    """A seeded store with every tensor read once, so that tests which
    trace memory measure activations only, not first draws."""
    for _ in store.tensors.values():
        pass
    return store


@pytest.fixture(scope="session")
def tiny_store(tiny_config):
    return _drawn(codec.init_weights(tiny_config, seed=tiny_config.seed))


@pytest.fixture(scope="session")
def full_config():
    return codec.default_config("SUNAC")


@pytest.fixture(scope="session")
def full_store(full_config):
    return _drawn(codec.init_weights(full_config, seed=0))


@pytest.fixture()
def rng():
    return np.random.default_rng(20240816)

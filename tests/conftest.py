import numpy as np
import pytest
from hypothesis import settings

from tokembed import rng as rng_mod
from tokembed.embeddings import EmbeddingTable, Vocabulary

# derandomize keeps the property tests bit-reproducible run to run, matching
# the determinism story of the package itself
settings.register_profile("suite", deadline=None, max_examples=60,
                          derandomize=True)
settings.load_profile("suite")


@pytest.fixture(autouse=True, scope="session")
def session_cache_home(tmp_path_factory):
    """The table cache of every load in the suite, in process or in a
    subprocess, under a session directory instead of the user's home."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache_home")))
        yield


@pytest.fixture
def toy_table():
    """Six words, d=3, deterministic small-integer-ish vectors."""
    rng = rng_mod.stream(99, "data")
    vocab = Vocabulary([f"x{k}" for k in range(6)])
    vectors = np.zeros((len(vocab), 3), dtype=np.float32)
    vectors[:6] = rng.normal(0.0, 1.0, size=(6, 3))
    return EmbeddingTable(vocab, vectors)


@pytest.fixture
def abc_table():
    """Words a, b, c with 1-D embeddings 1, 2, 3."""
    vocab = Vocabulary(["a", "b", "c"])
    vectors = np.zeros((len(vocab), 1), dtype=np.float32)
    vectors[0, 0], vectors[1, 0], vectors[2, 0] = 1.0, 2.0, 3.0
    return EmbeddingTable(vocab, vectors)


@pytest.fixture
def no_large_arrays(monkeypatch):
    """Make numpy's array constructors refuse more than a million elements."""
    for name in ("zeros", "empty", "ones", "full"):
        def guarded(shape, *args, _make=getattr(np, name), **kwargs):
            if np.prod(shape, dtype=np.float64) > 1e6:
                raise AssertionError(f"allocated an array of shape {shape}")
            return _make(shape, *args, **kwargs)
        monkeypatch.setattr(np, name, guarded)

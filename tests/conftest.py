import contextlib
import importlib
import math
import warnings
from fractions import Fraction

import pytest

from flagnef.corpus import iter_hn_types

# Hypothesis imports libcst when it explains a failing example, and libcst
# subclasses the deprecated mypy_extensions.TypedDict at import.  Under
# ``-W error`` that warning, raised in a reporting hook, ends the run in an
# INTERNALERROR, so the module is imported here once with it ignored.
with warnings.catch_warnings(), contextlib.suppress(ImportError):  # libcst is optional
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning)
    importlib.import_module("libcst.metadata.type_inference_provider")


@pytest.fixture(scope="session")
def corpus():
    """Every HN type with total rank <= 6 and piece degrees in [-4, 4]."""
    return tuple(iter_hn_types(max_rank=6, max_abs_degree=4))


@pytest.fixture(scope="session")
def corpus_pairs(corpus):
    """All (type, quotient dimension) pairs over the corpus."""
    return tuple((h, r) for h in corpus for r in range(1, h.rank))


@pytest.fixture
def row_builds(monkeypatch):
    """The ``top`` of every oracle row built while the test runs."""
    module = importlib.import_module("flagnef.theta")
    build, tops = module._oracle_row, []

    def counting(ranks, weights, top):
        tops.append(top)
        return build(ranks, weights, top)

    monkeypatch.setattr(module, "_oracle_row", counting)
    return tops


@pytest.fixture
def type_builds(monkeypatch):
    """Every HNType whose constructor runs while the test runs, in order."""
    module = importlib.import_module("flagnef.hn")
    init, built = module.HNType.__init__, []

    def counting(self, pieces):
        built.append(self)
        init(self, pieces)

    monkeypatch.setattr(module.HNType, "__init__", counting)
    return built


@pytest.fixture
def table_builds(monkeypatch):
    """The piece ranks of every type whose block table is built while the
    test runs.  A build past the bound fails at once, before its walk."""
    module = importlib.import_module("flagnef.theta")
    build, built = module._block_table, []

    def counting(ranks, weights, den, slopes):
        assert math.prod(c + 1 for c in ranks) <= module._WHOLE_TABLE_BLOCKS, ranks[:3]
        built.append(ranks)
        return build(ranks, weights, den, slopes)

    monkeypatch.setattr(module, "_block_table", counting)
    return built


@pytest.fixture
def shared_slopes(monkeypatch):
    """A fresh, empty process-wide slope store, in place while the test runs."""
    store = {}
    monkeypatch.setattr(importlib.import_module("flagnef.theta"), "_SHARED_SLOPES", store)
    return store


@pytest.fixture
def fraction_reads(monkeypatch):
    """The name of every read of the ``Fraction.numerator`` and
    ``.denominator`` properties made while the test runs, in order."""
    reads = []
    for name in ("numerator", "denominator"):
        def counting(value, name=name, read=getattr(Fraction, name).fget):
            reads.append(name)
            return read(value)

        monkeypatch.setattr(Fraction, name, property(counting))
    return reads

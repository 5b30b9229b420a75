"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG per test."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def table_builds(monkeypatch) -> list:
    """The geometries the uncached table builder runs for from here on, in
    order, starting cold (no cached plan, no design record)."""
    from repro.core import window
    from repro.fft.plan import cache_clear

    seen, real = [], window.build_tables

    def counting(params, window=None):
        seen.append(params)
        return real(params, window)
    monkeypatch.setattr(window, "build_tables", counting)
    cache_clear()
    return seen


def random_complex(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Complex standard normal array helper used across test modules."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

"""The package's public names."""

import linarr

# test-only helpers that the package no longer carries or exports
REMOVED = ("ExactMatrix", "rref", "rank", "kernel_basis")


def test_public_names_resolve_and_exclude_removed_api():
    assert all(hasattr(linarr, name) for name in linarr.__all__)
    namespace: dict = {}
    exec("from linarr import *", namespace)
    assert set(linarr.__all__) <= namespace.keys()
    assert not set(REMOVED) & (set(linarr.__all__) | set(dir(linarr)))

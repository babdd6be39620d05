"""The package's public surface."""

import types

import eegloop


def test_all_is_the_sorted_public_names():
    # Every public name the package binds, save its submodules, is exported once.
    public = [name for name, value in vars(eegloop).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert eegloop.__all__ == sorted(public)

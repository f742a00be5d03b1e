"""The package's public API is the explicit ``__all__`` list."""

import types

import tfan


def test_all_lists_every_imported_name_and_no_submodule():
    public = {name for name, value in vars(tfan).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(tfan.__all__) == len(set(tfan.__all__))
    assert set(tfan.__all__) == public

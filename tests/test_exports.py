import types

import geopump


def test_all_is_sorted_unique_and_names_every_public_object():
    names = geopump.__all__
    assert names == sorted(set(names))
    assert all(hasattr(geopump, name) for name in names)
    public = {
        name
        for name, value in vars(geopump).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(names) == public

import types

import ptde


def test_every_export_resolves():
    for name in ptde.__all__:
        assert getattr(ptde, name) is not None, name


def test_exports_are_the_public_imports():
    public = {
        name for name, value in vars(ptde).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(ptde.__all__) == sorted(public)
    assert len(ptde.__all__) == len(set(ptde.__all__))

import bggkit


def test_every_export_resolves():
    missing = [name for name in bggkit.__all__ if not hasattr(bggkit, name)]
    assert not missing

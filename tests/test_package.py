import cubetri


def test_every_exported_name_resolves():
    assert [name for name in cubetri.__all__ if not hasattr(cubetri, name)] == []

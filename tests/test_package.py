import ardlkit


def test_every_public_name_resolves():
    missing = [name for name in ardlkit.__all__ if not hasattr(ardlkit, name)]
    assert missing == []
    assert len(set(ardlkit.__all__)) == len(ardlkit.__all__)

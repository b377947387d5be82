import axisforge


def test_every_export_resolves():
    # the export table is lazy: a stale entry fails only when accessed
    for name in axisforge.__all__:
        assert getattr(axisforge, name) is not None, name

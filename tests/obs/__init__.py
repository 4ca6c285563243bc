"""Tests for :mod:`repro.obs`."""


def emitter(obs, node: str):
    """``emit(event, trace_id="", hop=0, **detail)`` speaking as ``node``.

    Lets a test drive a sink by hand the way a node would, without
    building a world.
    """
    return lambda event, *args, **detail: obs.emit(event, node, *args, **detail)

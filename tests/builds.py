"""Count the records a piece of code builds, validated or trusted.

A record built through its constructor counts once its ``__post_init__``
has passed.  A record built by a trusted constructor (``hypnum._make_number``
or ``angle._make_angle``) skips ``__post_init__``, so it counts when that
constructor returns: every module's by-name binding of it is rebound for the
block, the way ``bench/tracer.py`` rebinds the functions it wraps.
"""
from __future__ import annotations

import contextlib
import sys

import pytest

from pseudoeuclid import angle, hypnum

# the trusted constructor of each record that has one, by its module-level name
TRUSTED = {hypnum.HyperbolicNumber: (hypnum, "_make_number"), angle.ExtendedAngle: (angle, "_make_angle")}


@contextlib.contextmanager
def counting_builds(cls: type):
    """The records of ``cls`` built inside the block, in the order they were built."""
    built = []
    post_init = cls.__post_init__

    def counted_post_init(record) -> None:
        post_init(record)
        built.append(record)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cls, "__post_init__", counted_post_init)
        if cls in TRUSTED:
            owner, name = TRUSTED[cls]
            make = getattr(owner, name)

            def counted_make(*values):
                record = make(*values)
                built.append(record)
                return record

            for key, module in list(sys.modules.items()):
                if key.startswith("pseudoeuclid.") and getattr(module, name, None) is make:
                    patch.setattr(module, name, counted_make)
        yield built

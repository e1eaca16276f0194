from fractions import Fraction

import pytest


@pytest.fixture
def fractions_built(monkeypatch):
    """fractions_built(call) -> (call(), the number of Fraction.__new__ calls
    it made).  Python 3.12 builds arithmetic results without __new__, so
    only a comparison of two counts on one interpreter means anything."""
    new = Fraction.__new__

    def count(call):
        built = 0

        def counting_new(cls, *args, **kwargs):
            nonlocal built
            built += 1
            return new(cls, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(Fraction, "__new__", counting_new)
            result = call()
        return result, built

    return count

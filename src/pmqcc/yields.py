"""Empty module.

The photon-number enumeration that lived here only ever checked the
closed forms of ``keyrate``; it is the test oracle ``tests/enumeration.py``
now.  The module itself stays because the benchmark's tracer
(``bench/tracer.py``) imports every module named in its ``LAYERS``, and
``yields`` is still one of them.
"""

__all__ = []

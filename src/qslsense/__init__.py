"""Sensing at the quantum speed limit; each public name lives in one module.

Closed forms: ``analytic`` and ``optimize``.
Exact spin-1/2 propagation: ``sequence`` and ``response.RotatingFrameRunner``.
The spin-1 NV lab frame: ``labframe`` and ``response.LabFrameRunner``.
The CLI writing the figure datasets as CSV: ``cli``.
"""

from . import analytic, labframe, optimize, response, sequence, spinlin, units

__version__ = "0.1.0"

"""comag: hybrid NV-diamond / Rb-vapor comagnetometer toolkit.

Sensor models for the two magnetometers, the closed-form minimal-correction
fusion estimator, background-field calibration, and the Monte-Carlo
improvement studies, with a CLI front end (``comag``).  Import the submodule
you need; ``import comag`` alone loads none of them.
"""

__version__ = "0.1.0"

"""talbotlab: numerical laboratory for free-space Talbot-effect qudits.

Synthesizes one- and two-photon quantum-carpet states, applies revival and
phase gates by simulated free-space propagation, and evaluates
D-dimensional CGLMP Bell inequalities both analytically and by full field
simulation.

Each name lives in its own module (``talbotlab.bell``, ``talbotlab.spdc``,
...); ``import talbotlab`` loads no NumPy.
"""

__version__ = "0.1.0"

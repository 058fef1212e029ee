"""Numerical laboratory for a peaked-wave shallow water model.

Core objects: periodic fields and the one FFT layer (fields), dyadic
frequency analysis (lpaley), the three equivalent evolution forms
(dynamics), transport / Picard machinery (transport), exact peaked
travelling waves and the weak identity (peakon), and breakdown diagnostics
(blowup).

Names are imported from the submodule that defines them, e.g.
`from gchlab.fields import Grid1D`; `import gchlab` loads no submodule, so
a CLI run imports only the modules its runner reaches.
"""

__version__ = "0.1.0"

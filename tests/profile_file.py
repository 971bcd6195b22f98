"""The writer of the CSV format that :func:`fnls.scattering.load_profile`
reads, for tests that hand a sampled profile to ``fnls scatter``.

Nothing in ``fnls`` writes a profile: the command line only reads one.
"""

from __future__ import annotations

import numpy as np

from fnls.csvio import formatted, write_grid
from fnls.scattering import InitialProfile


def save_profile(profile: InitialProfile, path) -> None:
    """Write the rows ``(x, re_q, im_q)`` of ``profile``."""
    write_grid(path, np.column_stack([profile.q.real, profile.q.imag]), "x,re_q,im_q",
               formatted(profile.x))

"""Low-rank decomposition toolkit for dense third-order volumes.

Provides a structured 3D SVD with progressive truncated reconstruction,
Tucker/HOOI and CPD/ALS baselines, reconstruction quality metrics,
bit-exact binary volume/model formats, synthetic volume generators, and
a benchmark command line front end.

Each module's ``__all__`` declares its public names; the package
re-exports their union.
"""

from . import baselines, errors, metrics, s3dsvd, tensor_core, volume_io
from .baselines import *
from .errors import *
from .metrics import *
from .s3dsvd import *
from .tensor_core import *
from .volume_io import *

__version__ = "0.1.0"

__all__ = sorted(
    {
        *baselines.__all__,
        *errors.__all__,
        *metrics.__all__,
        *s3dsvd.__all__,
        *tensor_core.__all__,
        *volume_io.__all__,
    }
)

"""expander-forge: towers of (q+1)-regular Ramanujan graphs, machine-checked.

Builds Schreier graphs of PSL2/PGL2(Z/q2^n) over Cartan and Borel subgroups
(and the Cayley variant) from integer quaternion generators, with verified
regularity, spectra, girth, covering maps, and stabilizer-intersection
probes.
"""

from .errors import InvalidParameterError, VerificationError
from .modarith import (
    PrimePower,
    is_prime,
    legendre,
    sqrt_minus_one,
)
from .multigraph import CoveringCheck, SerreGraph, girth, is_covering
from .projgroup import Mat2, is_psl, proj_normalize, reduce_matrix
from .quat import (
    GeneratorSet,
    Quaternion,
    enumerate_generators,
    evaluate_word,
    split,
)
from .spectra import (
    SpectralReport,
    adjacency,
    ramanujan_check,
)
from .tower import (
    CoveringMap,
    LoopWitness,
    ProbeResult,
    TowerConfig,
    TowerLevel,
    TowerResult,
    TwistSequence,
    build_level,
    build_tower,
    intersection_probe,
    loop_witness,
    lps_girth_floor,
    natural_covering,
    probe_with_reseed,
    twist_sequence,
)

__version__ = "0.1.0"

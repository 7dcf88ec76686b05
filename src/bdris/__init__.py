"""Scattering-matrix design for reciprocal surfaces with grouped elements.

The package designs blockwise symmetric unitary scattering matrices that
maximize the downlink sum-rate of a multi-user MISO system. The optimizer
ascends the sum-rate on the blockwise unitary manifold, with the gradient
of a fractional-programming surrogate: Newton steps in body coordinates
(from the dense Hessian for small problems, from its diagonal plus
low-rank form in an eigenbasis for large ones), L-BFGS steps where no
allowed shift makes the Newton step usable, and a line search on the true
sum-rate. Each block, of one element or more, is kept exactly symmetric by
iterating its Takagi factor U_g (Theta_g = U_g U_g^T) along geodesics of
the symmetric unitary matrices, on which every line-search candidate is a
diagonal block in known bases: single-connected surfaces run the same
iteration as group- and fully-connected ones.

Each formula has one implementation, on stacks of blocks: ``gradient``
(channel factors, the closed-form gradient and its Takagi-factor chain
rule), ``manifold`` (tangent projection, geodesic frames, batched
retraction, random feasible points) and ``optimizer._Workspace`` (signal
matrix, the channel tensor that scores diagonal blocks, auxiliaries,
sum-rate, and the per-user surrogate that the objective sums). Each
setting has one home as well: ``SystemConfig`` holds the system, its noise
power and the iteration cap, ``CgaSettings`` a per-run iteration cap (the
step rule and the stopping rule are constants of ``optimizer``), and a
``ScatteringMatrix`` derives its architecture from its group size.

The public API is the config and channel types, the beamformer
initializers, ``cga_optimize`` with its trace types, the feasibility check,
and the Monte Carlo harness in ``bench``.
"""

__version__ = "0.1.0"

from .bench import (ExperimentSpec, ResultRow, ResultTable, empirical_cdf,
                    emit_outputs, load_experiment_spec, run_experiment)
from .channel import (ChannelSet, generate_channels,
                      generate_channels_from_gains, pathloss)
from .config import (Geometry, LinkGeometry, SystemConfig, config_from_dict,
                     config_to_dict, load_config)
from .manifold import random_feasible
from .optimizer import (CgaSettings, FeasibilityReport, IterationRecord,
                        OptimizerTrace, TraceFinal, cga_optimize,
                        project_symmetric_unitary, validate_feasibility,
                        write_trace_csv)
from .system import (Architecture, Beamformer, ScatteringMatrix,
                     infer_architecture, init_beamformer_mmse,
                     init_beamformer_uniform, parse_architecture_tag)

__all__ = [name for name in dir() if not name.startswith("_")]

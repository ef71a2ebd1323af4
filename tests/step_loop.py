"""Reference for the sampler: each scheme's step written out of place, one new array per line.

`slowfast.trajectory` advances its states in place; the tests check every
state it yields, and `run_trajectory_batch`'s result, against this loop bit
for bit.  The loop reads the same normal fields and the same step constants.
"""

import numpy as np

from slowfast import SchemeKind, Transition, averaged_force, eval_F, sample_cylindrical_batch


def loop_states(config, spec, nl, gt, master_seed, first_sample, count):
    """[(x, y)] at steps 0..N of samples first_sample..first_sample+count-1; y None if not coupled."""
    tr = Transition(config.scheme, spec.lambdas, config.dt, config.eps)
    ones = np.ones((count, 1))
    x = ones * config.x0
    y = ones * config.y0 if config.scheme.coupled else None
    states = [(x, y)]
    for n in range(config.N):
        if config.scheme == SchemeKind.AVERAGED:
            F = averaged_force(nl, gt, spec)(x)
        else:
            g = sample_cylindrical_batch(spec, master_seed, n, first_sample, count)
            if config.scheme.coupled:
                y = tr.a * y + tr.sd * g
                F = eval_F(nl, gt, x, y)
            else:  # LIMITING: a fresh equilibrium draw, not carried to the next step
                F = eval_F(nl, gt, x, g / np.sqrt(spec.lambdas))
        x = (x + config.dt * F) / tr.one_plus
        states.append((x, y))
    return states

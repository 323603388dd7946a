"""Sampling the driving processes.

Builds one path of each driver family on a shared horizon -- Brownian,
symmetric stable, truncated stable, compound Poisson -- prints summary
statistics, and shows how components compose into the mixed driver
sqrt(kappa) B + theta^(1/alpha) S^c + R used by the composite-driver
experiments.  Everything is reproducible from the master seed.
"""

import numpy as np

from levyloewner import (
    Brownian,
    CompoundPoisson,
    DriverSpec,
    JumpLaw,
    Stable,
    TruncatedStable,
    sample_driver,
)

SEED = 7
HORIZON = 2.0

families = {
    "brownian kappa=4": DriverSpec((Brownian(4.0),)),
    "stable alpha=1.5 theta=1": DriverSpec((Stable(1.5, 1.0),)),
    "truncated stable c=1": DriverSpec((TruncatedStable(0.8, 1.0, 1.0),)),
    "compound Poisson rate=3": DriverSpec(
        (CompoundPoisson(3.0, JumpLaw("two_point", {"size": 2.0})),)
    ),
    "mixed (Cor. composite)": DriverSpec((
        Brownian(8.0),
        TruncatedStable(1.5, 1.0, 1.0),
        CompoundPoisson(1.0, JumpLaw("two_point", {"size": 1.0})),
    )),
}

print(f"one path per family, horizon {HORIZON}, master seed {SEED}\n")
for name, spec in families.items():
    path = sample_driver(spec, HORIZON, SEED, replica=0, dt=1e-3)
    u = path.values
    print(f"{name:28s} grid={path.grid.size:5d}  U(T)={u[-1]: .3f}  "
          f"range=[{u.min(): .2f},{u.max(): .2f}]")
    d_jump = path.increments()[1]
    if d_jump.any():
        biggest = np.argmax(np.abs(d_jump))
        print(f"{'':28s} largest jump-part increment {d_jump[biggest]:+.3f} "
              f"at t={path.grid[biggest + 1]:.3f}")

print("\nSame seed, same replica -> bit-identical paths; different replica -> fresh path:")
p_a = sample_driver(families["stable alpha=1.5 theta=1"], HORIZON, SEED, replica=0)
p_b = sample_driver(families["stable alpha=1.5 theta=1"], HORIZON, SEED, replica=0)
p_c = sample_driver(families["stable alpha=1.5 theta=1"], HORIZON, SEED, replica=1)
print("  replica 0 == replica 0:", bool(np.array_equal(p_a.values, p_b.values)))
print("  replica 0 == replica 1:", bool(np.array_equal(p_a.values, p_c.values)))

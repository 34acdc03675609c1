"""A short decentralized BO run on the Hartmann-6 benchmark.

Thirty iterations with a random overlapping decomposition of factor size
up to 3.  The trace shows simple regret falling as the additive surrogate
localizes the optimum.  (The full experiment uses 150 iterations; see the
table1 CLI subcommand.)
"""

from fgbo.engine import RunConfig, run

config = RunConfig(
    objective="hartmann6",
    algorithm="dec_hbo",
    iterations=30,
    seed=0,
    initial_evaluations=5,
    noise_variance=0.01,
    decomposition={"mode": "random", "max_factor_size": 3, "num_extra_overlaps": 1},
    beta={"mode": "fixed_constant", "fixed_value": 4.0},
    grid_caps=(2, 32),
)

result = run(config)
print(f"decomposition: {result.decomposition.subsets}")
print(" t    f(x_t)      regret    best-so-far")
for rec in result.records:
    if rec.t % 5 == 0 or rec.t == 1:
        print(f"{rec.t:3d}  {rec.f:+9.5f}  {rec.r:9.5f}  {rec.best:9.5f}")
print(f"\nfinal simple regret: {result.final_simple_regret:.5f}")
print(f"cumulative regret:   {result.cumulative_regret:.2f}")

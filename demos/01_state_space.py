"""Tour of the station state space and measures on it.

A station of capacity K holds four kinds of content: spaces reserved by
users still elsewhere (w), spaces reserved for cars already driving in
(x), available cars (y), and cars reserved for imminent departure (z).
Any combination with w + x + y + z <= K is a valid station state; this
script walks the enumeration, the rank bijection, the count arrays the
enumeration is read from, and the functionals that the rest of the
toolkit measures everything with.
"""

import numpy as np

from duores import (
    Measure,
    enumerate_states,
    index_of,
    mean_fill,
    num_states,
    prob_no_available,
    prob_saturated,
    state_of,
    tv_distance,
)
from duores.core import count_arrays, ranks_of


def main() -> None:
    print("state counts by capacity")
    for K in range(7):
        print(f"  K={K}: {num_states(K):4d} states")

    K = 2
    print(f"\nall {num_states(K)} states at K={K} in rank order")
    for rank, st in enumerate(enumerate_states(K)):
        back = index_of(st, K)
        print(f"  rank {rank:2d}: w={st.w} x={st.x} y={st.y} z={st.z}"
              f"  (round trip -> {back})")
        assert back == rank and state_of(rank, K) == st

    print("\nthe same states as the four count arrays that measures are indexed by")
    w, x, y, z = count_arrays(K)
    for name, col in zip("wxyz", (w, x, y, z)):
        print(f"  {name}: {' '.join(map(str, col.tolist()))}")
    assert np.array_equal(ranks_of(w, x, y, z, K), np.arange(num_states(K)))

    print("\nthree measures on the K=2 space")
    empty = Measure.point((0, 0, 0, 0), K)
    one_car = Measure.point((0, 0, 1, 0), K)
    uniform = Measure.uniform(K)
    for name, m in [("empty", empty), ("one car", one_car), ("uniform", uniform)]:
        print(f"  {name:8s} mean fill {mean_fill(m):.4f}"
              f"  P[no car] {prob_no_available(m):.4f}"
              f"  P[full] {prob_saturated(m):.4f}")

    print("\ntotal-variation distances")
    print(f"  empty   vs one car: {tv_distance(empty, one_car):.4f}")
    print(f"  uniform vs empty:   {tv_distance(uniform, empty):.4f}")

    # a random measure drawn from the simplex, for scale
    rng = np.random.default_rng(1)
    rand = Measure(rng.dirichlet(np.ones(num_states(K))), K)
    print(f"  uniform vs random:  {tv_distance(uniform, rand):.4f}")


if __name__ == "__main__":
    main()

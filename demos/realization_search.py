"""Which finite lattices arise as torsion lattices of a reflexive relation?

Every finite lattice arises from some reflexive relation; the
semidistributive ones are exactly those arising from factorizable
relations. This script enumerates all lattices with at most six
elements up to isomorphism, searches for factorizable realizations of
the semidistributive ones, and shows that the diamond M3 is realizable
only by a non-factorizable relation.
"""

from torslat import (
    is_factorizable,
    is_semidistributive,
    join_irreducibles,
    lattice_census,
    poset_from_pairs,
    realize_sd_lattice,
    try_lattice,
)


def arrows_of(R):
    return [
        (R.labels[x], R.labels[y])
        for x in range(R.m)
        for y in range(R.m)
        if x != y and R.row_masks[x] >> y & 1
    ]


census = lattice_census(6)
print(f"lattices with at most 6 elements, up to isomorphism: {len(census)}")

sd = [L for L in census if is_semidistributive(L)]
print(f"semidistributive among them: {len(sd)}\n")

print("factorizable realizations (brick count equals join-irreducible count):")
for L in sd:
    R = realize_sd_lattice(L, 5)
    assert R is not None
    print(f"   {L.n} elements, {len(join_irreducibles(L))} join-irreducibles:"
          f" arrows {arrows_of(R)}")

m3 = try_lattice(poset_from_pairs(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]))
print("\nthe diamond M3 is not semidistributive:", not is_semidistributive(m3))
print("factorizable search over all relations on 3 bricks:",
      realize_sd_lattice(m3, 3))
loose = realize_sd_lattice(m3, 3, factorizable_only=False)
print("unfiltered search finds the directed 3-cycle:", arrows_of(loose),
      "factorizable:", is_factorizable(loose))

seven = try_lattice(poset_from_pairs(
    7, [(0, 1), (0, 2), (1, 3), (1, 4), (3, 5), (4, 5), (5, 6), (2, 6)]
))
print("\na 7-element semidistributive lattice with 4 join-irreducibles:")
R7 = realize_sd_lattice(seven, 4)
print("   realized on", R7.m, "bricks with arrows", arrows_of(R7))

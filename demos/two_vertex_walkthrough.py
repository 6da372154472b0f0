"""Walk through the smallest interesting example: the quiver 1 <- 2.

The path algebra of a single arrow has three indecomposable modules,
all bricks: the two simples and the length-two interval. Its torsion
classes form a pentagon, and every cover of the pentagon is labelled
by the unique brick sitting in the gap between its two classes.
"""

from torslat import (
    QuiverPresentation,
    bricks,
    hom_relation,
    join_irreducibles,
    kappa,
    meet_irreducibles,
    to_dot,
    tors_of_algebra,
)

Q = QuiverPresentation(2, ("left",), ())
TL = tors_of_algebra(Q)
R = TL.relation

print("bricks of the algebra:")
for M in bricks(Q):
    print("  ", M.label(Q.n), "supported on vertices", list(M.vertices))

print("\nnonzero hom arrows between distinct bricks:")
for x in range(R.m):
    for y in range(R.m):
        if x != y and R.row_masks[x] >> y & 1:
            print(f"   {R.labels[x]} -> {R.labels[y]}")

print(f"\ntorsion classes ({TL.n} of them, ordered by inclusion):")
for i in range(TL.n):
    members = [R.labels[b] for b in range(R.m) if TL.tset(i) >> b & 1]
    cotorsion = [R.labels[b] for b in range(R.m) if TL.fset(i) >> b & 1]
    print(f"   {i}: tset {{{', '.join(members)}}}  fset {{{', '.join(cotorsion)}}}")

print("\neach cover edge carries the unique brick in tset(upper) & fset(lower):")
for edge, b in sorted(TL.cover_labels.items()):
    print(f"   {edge.lower} -| {edge.upper}   label {R.labels[b]}")

L = TL.lattice
print("\nkappa pairs each join-irreducible class with a meet-irreducible one:")
for j in join_irreducibles(L):
    print(f"   join-irreducible {j}  ->  meet-irreducible {kappa(L, j)}")
print("meet-irreducibles:", list(meet_irreducibles(L)))

print("\nGraphviz source for the labelled Hasse diagram:\n")
print(to_dot(L, edge_labels={c: R.labels[b] for c, b in TL.cover_labels.items()}))

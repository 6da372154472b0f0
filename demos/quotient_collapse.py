"""Killing paths in the algebra collapses intervals in the torsion lattice.

Start with the linear three-vertex algebra, then impose the relation
that the length-two path vanishes. Five of the six interval modules
survive. The torsion lattice of the quotient is a lattice quotient of
the original: classes that differ only by killed bricks fall together,
and surviving cover labels are preserved on the way down.
"""

from torslat import (
    QuiverPresentation,
    bricks,
    fiber_check,
    label_preservation_check,
    quotient_map,
    tors_of_algebra,
)

Q = QuiverPresentation(3, ("right", "right"), ())
print("source: linear A3, torsion classes:", tors_of_algebra(Q).n)

qm = quotient_map(Q, ((0, 1),))
src, dst = qm.source, qm.target
print("target: same quiver with the two-step path killed")
print("surviving bricks:", [M.label(3) for i, M in enumerate(bricks(Q))
                            if qm.brick_map[i] is not None])
print("killed bricks:   ", [M.label(3) for i, M in enumerate(bricks(Q))
                            if qm.brick_map[i] is None])
print("torsion classes drop from", src.n, "to", dst.n)

fibers = {}
for i, t in enumerate(qm.element_map):
    fibers.setdefault(t, []).append(i)
print("\nfibers of the lattice surjection (source classes per target class):")
for t in sorted(fibers):
    marker = "  <- collapsed" if len(fibers[t]) > 1 else ""
    print(f"   target {t}: {fibers[t]}{marker}")

comparable = [
    (u, v)
    for u in range(src.n)
    for v in range(src.n)
    if src.lattice.leq(u, v)
]
print("\nfiber characterization (same image iff the gap is entirely killed):")
print("   holds on all", len(comparable), "comparable pairs:",
      all(fiber_check(qm, u, v) for u, v in comparable))
print("surviving cover labels preserved:", label_preservation_check(qm))

# Quotients compose: kill one arrow of the radical-square-zero algebra
# and only four bricks survive.
deeper = quotient_map(QuiverPresentation(3, ("right", "right"), ((0, 1),)), ((1,),))
print("\nquotient once more by the second arrow:")
print("torsion classes drop from", deeper.source.n, "to", deeper.target.n)

"""Enumerate Rauzy classes and inspect their structure.

The class of the hyperelliptic permutation on d symbols is the directed
graph reachable from it under the two Rauzy moves.  This demo prints the
class sizes for small d, confirms the 2-in/2-out regularity, and shows
that collapsing the restriction subgraph of the d-symbol class recovers
the class on d-3 symbols.
"""
from ietkit.perm import (
    graphs_isomorphic,
    hyperelliptic_class,
    hyperelliptic_permutation,
    rauzy_move,
    restriction_subgraph,
    special_permutations,
    TOP_WINS,
    BOTTOM_WINS,
)


def main() -> None:
    print("class sizes for the hyperelliptic permutation:")
    for d in range(2, 7):
        g = hyperelliptic_class(d)
        print(f"  d={d}: {len(g.vertices):3d} vertices, {len(g.edges):3d} edges")

    g4 = hyperelliptic_class(4)
    print("\nevery vertex of the d=4 class is 2-in/2-out:", g4.two_in_two_out())

    pi_l, pi_r, pi_prime = special_permutations(4)
    print("special permutations in the d=4 class:")
    for name, pi in [("pi_L", pi_l), ("pi_R", pi_r), ("pi'", pi_prime)]:
        print(f"  {name} = {pi}  member: {pi in g4}")

    pi = hyperelliptic_permutation(3)
    print("\none move in each direction from", pi)
    for side in (TOP_WINS, BOTTOM_WINS):
        e = rauzy_move(pi, side)
        print(f"  {side}: winner {e.winner}, loser {e.loser} -> {e.target}")

    print("\ncollapsed restriction subgraph of the d-class matches the "
          "(d-3)-class:")
    for d in (5, 6):
        sub = restriction_subgraph(d, collapse=True)
        ref = hyperelliptic_class(d - 3)
        print(f"  d={d}: isomorphic to d={d-3} class:",
              graphs_isomorphic(sub, ref))


if __name__ == "__main__":
    main()

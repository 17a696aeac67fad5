#!/usr/bin/env python3
"""Walk through the synthesis algorithm on the paper's running example.

Reproduces Section 3.2 step by step for COO → MCOO (Morton-ordered COO):

1. the destination map is inverted and the permutation P introduced,
2. it is composed with the source map (the Table 2 constraint sets),
3. each unknown UF (row_m, col_m, P) gets a population statement,
4. the Morton reordering quantifier is enforced through P's comparator,
5. the copy statement is generated,

then shows the optimized inspector in both Python and the C the compiled
tier builds, and runs it on a small matrix.

Run:  python examples/synthesis_walkthrough.py
"""

from repro import COOMatrix, MortonCOOMatrix, dense_equal
from repro.formats import mcoo, scoo
from repro.synthesis import synthesize


def main() -> None:
    src, dst = scoo(), mcoo()
    print("SOURCE DESCRIPTOR")
    print(src.display())
    print()
    print("DESTINATION DESCRIPTOR")
    print(dst.display())
    print()

    print("STEP 1+2: invert destination map, compose with source map")
    composed = dst.sparse_to_dense.inverse().compose(src.sparse_to_dense)
    print(f"  {composed}")
    print()

    conversion = synthesize(src, dst)
    print("STEPS 3-5 (decisions logged by the engine):")
    for note in conversion.notes:
        print("  -", note)
    print()

    print("GENERATED PYTHON INSPECTOR")
    print(conversion.source)
    print("GENERATED C INSPECTOR (without the C runtime header)")
    print(conversion.c_source)
    print()

    dense = [
        [1.0, 0.0, 2.0, 0.0],
        [0.0, 3.0, 0.0, 0.0],
        [4.0, 0.0, 0.0, 5.0],
        [0.0, 6.0, 7.0, 0.0],
    ]
    coo = COOMatrix.from_dense(dense)
    out = conversion(
        row1=coo.row, col1=coo.col, Asrc=coo.val,
        NR=4, NC=4, NNZ=coo.nnz,
    )
    result = MortonCOOMatrix(4, 4, out["row_m"], out["col_m"], out["Adst"])
    result.check()
    assert dense_equal(result.to_dense(), dense)
    print("RESULT (Morton order):")
    for i, j, v in result.nonzeros():
        print(f"  ({i}, {j}) = {v}")


if __name__ == "__main__":
    main()

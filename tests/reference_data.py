"""Frozen reference values shared by the test modules.

Pair lists and table cells are the published census/tables for orders 16
and 24; orbit rows are a sample spanning every group of the published
summary tables.  All values were cross-checked by hand or by independent
scripts before being frozen here.
"""

# The 8 Type-2 pairs of order 16 (complete).
PAIRS_16 = [
    ((1, 2, 7), (2, 3, 5)),
    ((1, 6, 7), (3, 5, 6)),
    ((1, 2, 4, 7), (2, 3, 4, 5)),
    ((1, 2, 7, 8), (2, 3, 5, 8)),
    ((1, 4, 6, 7), (3, 4, 5, 6)),
    ((1, 6, 7, 8), (3, 5, 6, 8)),
    ((1, 2, 4, 7, 8), (2, 3, 4, 5, 8)),
    ((1, 4, 6, 7, 8), (3, 4, 5, 6, 8)),
]

# The 32 published Type-2 pairs of order 24, kept verbatim.  The exhaustive
# census finds these plus the 32 pairs with {3,9} added to both sides, which
# satisfy the Type-2 definition as the paper's abstract states it.
# Acceptance criterion 2 passes: it pins this list as a named subset of the
# census and derives the 32 extras from it by that rule.  The abstract alone
# cannot settle whether the full paper excludes the extras by some further
# clause.
PAIRS_24 = [
    ((1, 2, 11), (2, 5, 7)),
    ((1, 10, 11), (5, 7, 10)),
    ((1, 2, 4, 11), (2, 4, 5, 7)),
    ((1, 2, 6, 11), (2, 5, 6, 7)),
    ((1, 2, 8, 11), (2, 5, 7, 8)),
    ((1, 2, 11, 12), (2, 5, 7, 12)),
    ((1, 4, 10, 11), (4, 5, 7, 10)),
    ((1, 6, 10, 11), (5, 6, 7, 10)),
    ((1, 8, 10, 11), (5, 7, 8, 10)),
    ((1, 10, 11, 12), (5, 7, 10, 12)),
    ((1, 2, 4, 6, 11), (2, 4, 5, 6, 7)),
    ((1, 2, 4, 8, 11), (2, 4, 5, 7, 8)),
    ((1, 2, 4, 11, 12), (2, 4, 5, 7, 12)),
    ((1, 2, 6, 8, 11), (2, 5, 6, 7, 8)),
    ((1, 2, 6, 11, 12), (2, 5, 6, 7, 12)),
    ((1, 2, 8, 11, 12), (2, 5, 7, 8, 12)),
    ((1, 4, 6, 10, 11), (4, 5, 6, 7, 10)),
    ((1, 4, 8, 10, 11), (4, 5, 7, 8, 10)),
    ((1, 4, 10, 11, 12), (4, 5, 7, 10, 12)),
    ((1, 6, 8, 10, 11), (5, 6, 7, 8, 10)),
    ((1, 6, 10, 11, 12), (5, 6, 7, 10, 12)),
    ((1, 8, 10, 11, 12), (5, 7, 8, 10, 12)),
    ((1, 2, 4, 6, 8, 11), (2, 4, 5, 6, 7, 8)),
    ((1, 2, 4, 6, 11, 12), (2, 4, 5, 6, 7, 12)),
    ((1, 2, 4, 8, 11, 12), (2, 4, 5, 7, 8, 12)),
    ((1, 2, 6, 8, 11, 12), (2, 5, 6, 7, 8, 12)),
    ((1, 4, 6, 8, 10, 11), (4, 5, 6, 7, 8, 10)),
    ((1, 4, 6, 10, 11, 12), (4, 5, 6, 7, 10, 12)),
    ((1, 4, 8, 10, 11, 12), (4, 5, 7, 8, 10, 12)),
    ((1, 6, 8, 10, 11, 12), (5, 6, 7, 8, 10, 12)),
    ((1, 2, 4, 6, 8, 11, 12), (2, 4, 5, 6, 7, 8, 12)),
    ((1, 4, 6, 8, 10, 11, 12), (4, 5, 6, 7, 8, 10, 12)),
]

# Shift tables for four order-24 graphs at m = 2, t = 1..11: every cell of
# the elementwise image of the symmetric jump set, plus the verdict.
# Verdict is ('not', None) or ('type1', unit).
THETA_TABLES_24 = {
    (1, 2, 3): [
        (1, (3, 2, 5, 23, 22, 1), ("not", None)),
        (2, (5, 2, 7, 1, 22, 3), ("not", None)),
        (3, (7, 2, 9, 3, 22, 5), ("not", None)),
        (4, (9, 2, 11, 5, 22, 7), ("not", None)),
        (5, (11, 2, 13, 7, 22, 9), ("not", None)),
        (6, (13, 2, 15, 9, 22, 11), ("type1", 11)),
        (7, (15, 2, 17, 11, 22, 13), ("not", None)),
        (8, (17, 2, 19, 13, 22, 15), ("not", None)),
        (9, (19, 2, 21, 15, 22, 17), ("not", None)),
        (10, (21, 2, 23, 17, 22, 19), ("not", None)),
        (11, (23, 2, 1, 19, 22, 21), ("not", None)),
    ],
    (5, 9, 10): [
        (1, (7, 11, 10, 14, 17, 21), ("not", None)),
        (2, (9, 13, 10, 14, 19, 23), ("not", None)),
        (3, (11, 15, 10, 14, 21, 1), ("not", None)),
        (4, (13, 17, 10, 14, 23, 3), ("not", None)),
        (5, (15, 19, 10, 14, 1, 5), ("not", None)),
        (6, (17, 21, 10, 14, 3, 7), ("type1", 11)),
        (7, (19, 23, 10, 14, 5, 9), ("not", None)),
        (8, (21, 1, 10, 14, 7, 11), ("not", None)),
        (9, (23, 3, 10, 14, 9, 13), ("not", None)),
        (10, (1, 5, 10, 14, 11, 15), ("not", None)),
        (11, (3, 7, 10, 14, 13, 17), ("not", None)),
    ],
    (3, 7, 10): [
        (1, (5, 9, 10, 14, 19, 23), ("not", None)),
        (2, (7, 11, 10, 14, 21, 1), ("not", None)),
        (3, (9, 13, 10, 14, 23, 3), ("not", None)),
        (4, (11, 15, 10, 14, 1, 5), ("not", None)),
        (5, (13, 17, 10, 14, 3, 7), ("not", None)),
        (6, (15, 19, 10, 14, 5, 9), ("type1", 11)),
        (7, (17, 21, 10, 14, 7, 11), ("not", None)),
        (8, (19, 23, 10, 14, 9, 13), ("not", None)),
        (9, (21, 1, 10, 14, 11, 15), ("not", None)),
        (10, (23, 3, 10, 14, 13, 17), ("not", None)),
        (11, (1, 5, 10, 14, 15, 19), ("not", None)),
    ],
    (2, 7, 11): [
        (1, (2, 9, 13, 15, 19, 22), ("not", None)),
        (2, (2, 11, 15, 17, 21, 22), ("not", None)),
        (3, (2, 13, 17, 19, 23, 22), ("not", None)),
        (4, (2, 15, 19, 21, 1, 22), ("not", None)),
        (5, (2, 17, 21, 23, 3, 22), ("not", None)),
        (6, (2, 19, 23, 1, 5, 22), ("type1", 11)),
        (7, (2, 21, 1, 3, 7, 22), ("not", None)),
        (8, (2, 23, 3, 5, 9, 22), ("not", None)),
        (9, (2, 1, 5, 7, 11, 22), ("not", None)),
        (10, (2, 3, 7, 9, 13, 22), ("not", None)),
        (11, (2, 5, 9, 11, 15, 22), ("not", None)),
    ],
}

# Sampled rows of the published order-24 summary tables: for each source
# triple, the outcomes of the shifts t = 3, 6, 9 (None = image is not a
# circulant graph) and the full multiplier-orbit membership list.
ORBIT_TABLE_ROWS_24 = [
    ((1, 2, 3), None, (2, 9, 11), None,
     [(1, 2, 3), (5, 9, 10), (3, 7, 10), (2, 9, 11)]),
    ((1, 2, 5), None, (2, 7, 11), None,
     [(1, 2, 5), (1, 5, 10), (7, 10, 11), (2, 7, 11)]),
    ((2, 3, 9), (2, 3, 9), (2, 3, 9), (2, 3, 9),
     [(2, 3, 9), (3, 9, 10)]),
    ((2, 9, 11), None, (1, 2, 3), None,
     [(2, 9, 11), (3, 7, 10), (5, 9, 10), (1, 2, 3)]),
    ((1, 3, 10), None, (9, 10, 11), None,
     [(1, 3, 10), (2, 5, 9), (2, 3, 7), (9, 10, 11)]),
    ((3, 9, 10), (3, 9, 10), (3, 9, 10), (3, 9, 10),
     [(3, 9, 10), (2, 3, 9)]),
    ((1, 3, 4), None, (4, 9, 11), None,
     [(1, 3, 4), (4, 5, 9), (3, 4, 7), (4, 9, 11)]),
    ((1, 4, 11), (4, 5, 7), (1, 4, 11), (4, 5, 7),
     [(1, 4, 11), (4, 5, 7)]),
    ((3, 4, 9), (3, 4, 9), (3, 4, 9), (3, 4, 9),
     [(3, 4, 9)]),
    ((1, 6, 9), None, (3, 6, 11), None,
     [(1, 6, 9), (3, 5, 6), (6, 7, 9), (3, 6, 11)]),
    ((3, 6, 9), (3, 6, 9), (3, 6, 9), (3, 6, 9),
     [(3, 6, 9)]),
    ((5, 6, 7), (1, 6, 11), (5, 6, 7), (1, 6, 11),
     [(5, 6, 7), (1, 6, 11)]),
    ((1, 8, 9), None, (3, 8, 11), None,
     [(1, 8, 9), (3, 5, 8), (7, 8, 9), (3, 8, 11)]),
    ((1, 8, 11), (5, 7, 8), (1, 8, 11), (5, 7, 8),
     [(1, 8, 11), (5, 7, 8)]),
    ((3, 8, 9), (3, 8, 9), (3, 8, 9), (3, 8, 9),
     [(3, 8, 9)]),
    ((1, 9, 12), None, (3, 11, 12), None,
     [(1, 9, 12), (3, 5, 12), (7, 9, 12), (3, 11, 12)]),
    ((3, 9, 12), (3, 9, 12), (3, 9, 12), (3, 9, 12),
     [(3, 9, 12)]),
    ((5, 7, 12), (1, 11, 12), (5, 7, 12), (1, 11, 12),
     [(5, 7, 12), (1, 11, 12)]),
    ((1, 3, 5), None, (7, 9, 11), None,
     [(1, 3, 5), (1, 5, 9), (3, 7, 11), (7, 9, 11)]),
    ((1, 3, 9), None, (3, 9, 11), None,
     [(1, 3, 9), (3, 5, 9), (3, 7, 9), (3, 9, 11)]),
    ((3, 5, 11), None, (1, 7, 9), None,
     [(3, 5, 11), (1, 7, 9)]),
    ((1, 7, 9), None, (3, 5, 11), None,
     [(1, 7, 9), (3, 5, 11)]),
    ((7, 9, 11), None, (1, 3, 5), None,
     [(7, 9, 11), (3, 7, 11), (1, 5, 9), (1, 3, 5)]),
]

# Triples reported non-CI at each order (both members of each size-3 pair);
# every other triple of the order is reported CI.
NON_CI_TRIPLES_16 = {(1, 2, 7), (2, 3, 5), (1, 6, 7), (3, 5, 6)}
NON_CI_TRIPLES_24 = {(1, 2, 11), (2, 5, 7), (1, 10, 11), (5, 7, 10)}

# sha256 of the canonical census JSON (`circiso enumerate --n N --format json
# --canonical`, sizes 3..N/2) for N = 8..28 and 32, recorded from the
# per-set scan that probed every jump set before the orbit-level census.
CENSUS_JSON_SHA256 = {
    8: "1657bd1bc3a5cea4735581cbc7cdc19f4bb3fd00a53e3c7d34997ad003ccc193",
    9: "0b8076ab5400dcd5ba7c16ecc0066b61c71efc7f2148fd039f6976e8e7edf598",
    10: "ae3597f822587187e65833a36fd8c145a8eca5d3b9b499322a84633ffb111d4f",
    11: "e7a9e85c040eb0db7264aeb92ece7e10908f7c9cb1d558efd74dd1179e282b24",
    12: "34b0dbdaf94c747880a096eae1d07c2e567c753b604c154852cb544dee21bbc9",
    13: "4e56ab23c992fc1ad3e9200c6dcfe1befb7417158b5b98f09fcc19d7a406266f",
    14: "f0e22ab5aaaed95e7f0c98c00e002f05683611eca6efd02796c03d29301024ee",
    15: "b9e1d2fc8c578a7a8f5fb1156e2c862ff6c7c00bbb7c3d0baacdcbed70f18a43",
    16: "faf321622014ba204d1c8ad845166a152844c7f35cc8792f5a2ff279407852ce",
    17: "f56fa8ff39077ce7f00eaaaff233f858aeacabdeee9ebea6e63818381fc1998a",
    18: "a7981f290463337418806b3cd202fc484c041f3a8442433da301285082642c95",
    19: "8737a1fd859c324ca7cd27f55369941c80a0a57f97e09a260074e4a27b69cdd9",
    20: "3be8bd7d638d21b89d1e096648e92132e9704e758fa974cbc4493d50895de44d",
    21: "dc5ea5c1eca26f83b4e2af68a7d905cf147d6e40c2473cac2f91c7549ea9163d",
    22: "6e12220ddbcf61df5cbd8c3045209c3058407eb1edda9f7ace7d112c1a446717",
    23: "78c2ad05590696a00bec4c89bdfcbd48d36360f254452675d67c535ea2c4419f",
    24: "511d317fc8b2c95e35d20756142e81473ff03dd6f744ca753c57d6994c7b7582",
    25: "370c1cd2fa3b49747cd169be78f61a1f35921e1765fcb8ab70ffdde7523901ea",
    26: "bd4335750b5d708cbfe5498da5cf8f3b7a77527ee5d60a2fd9b4abfbc0569aba",
    27: "3c3f117598cbff408e8fec946ac278469bde67c6b1dc430df740d602be4a88fb",
    28: "6ff85df6d59631705a7ca39767cbe307bc11758fea44b5187ecc7831eb4904ec",
    32: "c68d8aad16e50e3df4670a3b26bfa1b88aee10a7e14366493b31a9f29eaf0ba7",
}

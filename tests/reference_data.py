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
# N = 36 (0 pairs) and N = 40 (9,216 pairs) were recorded from the
# orbit-level census and matched by a separate scan that ran
# `classify_pair` on every probe of all 261,972 and 1,048,365 jump sets.
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
    36: "bebf0292034f5dd4fd75e6635f982def3963aa5e21b0a7d32fb275ed495b62ba",
    40: "3f85e46fe1c7457098b97b867534576448b0dabf4307693120fea5d3a87e937a",
}

# sha256 of the stdout of `circiso enumerate ... --canonical` in csv and text
# at n = 24, 32 and 40, and in all three formats with `--confirm` at n = 16
# (every pair confirmed), recorded from the CLI that streamed JSON and built
# csv and text as one string before printing it.
CENSUS_STDOUT_SHA256 = {
    ('enumerate', '--n', '24', '--format', 'csv', '--canonical'): "c9c2d16d37f502cbfefe3d3cdb650f46bdfb08db6d9a34a1717372599ad76726",
    ('enumerate', '--n', '24', '--format', 'text', '--canonical'): "9ed5e8e8c81820ca40b18299a2beafab60ffbbc7078726970a5f99b1a3df61af",
    ('enumerate', '--n', '32', '--format', 'csv', '--canonical'): "ff15575840729e259da5afbf20d04f95bbffec35739848c36dad5e60e8a98a5a",
    ('enumerate', '--n', '32', '--format', 'text', '--canonical'): "4779e40d12ca232b3b8ad8ebf2f85c9b56c9f758b509d41aa3d96caac5a7110a",
    ('enumerate', '--n', '40', '--format', 'csv', '--canonical'): "bb7f7006baaebbd087c19edfd62e76756a91cd92dabcd2c1408e94ccc1da88b3",
    ('enumerate', '--n', '40', '--format', 'text', '--canonical'): "9fe74393d4a309db5f2f93a49f721f4e503f31a897e5ce7c095a3b1b53d4f3f9",
    ('enumerate', '--n', '16', '--format', 'json', '--canonical', '--confirm'): "f210472a85470ce77511d4099aa13386dbce114b99fa73dcc448a2d3415d20a2",
    ('enumerate', '--n', '16', '--format', 'csv', '--canonical', '--confirm'): "641bf0831ea4357b6b97743715d29d24c71f4cc7b29035ddf7c6e8acc8bd2450",
    ('enumerate', '--n', '16', '--format', 'text', '--canonical', '--confirm'): "ec630f1520a9702108e5fb7da36de8602fdcc4f47900e725c98d1f4995c82764",
}

# The order-48 census (sizes 3..24), recorded from the census that scanned
# every jump mask for orbit minima.  Its canonical JSON digest there was
# 176909c9b4cb38e414f377b4928f06b152da3f5db57f014db030f82c0d6c862f, but
# `emit_census` holds all 54 MB of that text (a 280 MiB peak), so the test checks
# the pair count, the counts by size, and the sha256 of the compact
# `json.dumps([[left.jumps, right.jumps, witnesses], ...])` of the pairs in
# census order instead.
CENSUS_48 = {
    "pair_count": 105728,
    "counts_by_size": {
        3: 18, 4: 142, 5: 578, 6: 1602, 7: 3392, 8: 5888, 9: 8784, 10: 11582,
        11: 13660, 12: 14436, 13: 13660, 14: 11582, 15: 8784, 16: 5888,
        17: 3392, 18: 1602, 19: 578, 20: 142, 21: 18,
    },
    "compact_sha256": "86713d7e17bf58587dc12af8fb35516b8fa16e3b9235a8ba5cd1be31f93584c7",
}

# sha256 of the `ci_full_census(n, size)` verdict rows, serialised as the JSON
# list of [orbit member jump tuples, ci, isomorphic_to jump tuples, anomaly]
# (the digest perfbench checks), for n = 2..28 at sizes 1..min(4, n/2) and
# for (32, 3) and (32, 4): 98 censuses, recorded from the census that
# bucketed orbits by gcd signature before the closed-walk key.
CI_VERDICT_SHA256 = {
    (2, 1): "b8fea79e66397e34be38bc525a75489ac51c31ceb011864d8ea7b72424cd0d7b",
    (3, 1): "b8fea79e66397e34be38bc525a75489ac51c31ceb011864d8ea7b72424cd0d7b",
    (4, 1): "9a07d8899d04bfd9dc9ea33d1ac69a640c0d9d8f477096f9f82e2ab6e63c617b",
    (4, 2): "0d36f194d07e3b7331fee7e67d8c4d1204968d4641ec37607b53c7b6d1b192cc",
    (5, 1): "494e94de0c30d59e2f73e8ed6c6684ec9aac27b686ae91c0161bd3c9af64919c",
    (5, 2): "0d36f194d07e3b7331fee7e67d8c4d1204968d4641ec37607b53c7b6d1b192cc",
    (6, 1): "9c82421d5590c9b0379467a9c9fc5c115e3a4f45a90d3f8b7bbd37d0b7425b72",
    (6, 2): "bb5c417ca525a265d4fbfb32f57e007bee9a0dd3fb7b528573cfb16cb5f27e5c",
    (6, 3): "44fc01d73609ed2db0272feb8cfa1e4009620c42351a6ed27e27f0dbb68eff70",
    (7, 1): "e38546a2e77662b67a934b304d02e8c11a9f24b140b204c73a29f8233238b53f",
    (7, 2): "8abfd1582a781beb3284fb44d15aca0c456318ab0493b103188f2215d753cfc8",
    (7, 3): "44fc01d73609ed2db0272feb8cfa1e4009620c42351a6ed27e27f0dbb68eff70",
    (8, 1): "7659cd92d7a545020bd1e8e9ca71aa14c033ca0b96ff81adca8def41e0ddba16",
    (8, 2): "77e6e99c2b428da155ea5899bc47ce0239461397fe3c88650e5adf7eab64ebad",
    (8, 3): "c31887e95d04a4d0e2cc6146b2e72979ea9a3adff9d3c66e0ec923f856b2f3b0",
    (8, 4): "a2bbac0474ddf05ced4dc1eddcfd26428d10a67780f0542cc350a89a6ad83769",
    (9, 1): "1d2583404421957314eea145c5f8d31d6f98cff2a8978d7f8a55df29aa3cc009",
    (9, 2): "a4fb2787ba2b5560384f9512228722f47cbbca4e008601ae1e830af34de8bf36",
    (9, 3): "c852575b93e40473fe097b7cb2ed0b13fab55d45c395d57a3b2736861b94014d",
    (9, 4): "a2bbac0474ddf05ced4dc1eddcfd26428d10a67780f0542cc350a89a6ad83769",
    (10, 1): "7212bd5c47d989901d73504e06e7942435e02c926a40f0ad7a56ec48e22a37a7",
    (10, 2): "c8fbf83c946fa1ed9ff437328b9f51a8196d57d855b2962912d324e88b219cc5",
    (10, 3): "982ab7cd65d386a6adb7105c7438f4272fbc8c7b9681a8faedac1a4666787d8f",
    (10, 4): "34c08169fe0419ec87251721b1b2389a7ed35658e78da05d007f6241316e32f5",
    (11, 1): "9e7b08911af6dd6695f34fcd05f64ea0e22f9539f50aa1991343b81f01a1ca6a",
    (11, 2): "f3131d6d9bf71651ed7f6e6b21909b1912c3d1947626fed1bcacc624e9441685",
    (11, 3): "82a1c15fe21d1e5db42c6519ace6d61651cef6dc6f83fd56690c5a779bfa1715",
    (11, 4): "3752d8bb149d6621884402220c278cbde6bc5ea5a9f28913e8a227d015ce1fbe",
    (12, 1): "63727d85e9215e3fcb5f5421924845ea31ccd0a011b33bf7b026046b977dcdb0",
    (12, 2): "3046630057f52b8ad2b1b3eeb1ab28c1742aec4fae17a162ccc6842c2dca64f7",
    (12, 3): "9dea4881daa0796ff58f0cee2240eda3a5de0627f1355fb3b33610417316660f",
    (12, 4): "d0677c2ac6e548b1a6cdb73fa54aa0ac3d5a6c94b6b263086a40b014969cfb0c",
    (13, 1): "f5d0b9f5d6b010eda28839d1eb2699a7a5bd10305a0abcb88c3b796a412812be",
    (13, 2): "10e1b14f08b993afea6e700152af6da567a4fd5392fefb98b4fe04dab5d171fb",
    (13, 3): "ea93600161c06849696d8dc6b31fa1da1295f93e7c133478ebdeda6499e75c80",
    (13, 4): "78e89e4753b6f471e8962076f0ac04c1f3e7f0b9014ae88768400ab54f5de3b8",
    (14, 1): "1d6b79fb193e0a756609a54e023eeefbc533b78cf376e1f9030b167045507136",
    (14, 2): "681a1c478ad820e46d40bbe53b928bfba1c0fa5e1a996e40ada2cf21536f4d93",
    (14, 3): "fde5d6cb783b0e64c312dab92d4fe0dc00daad27d3748af256bd16eac9af28d9",
    (14, 4): "b5cee559031f316eb218da8dea710cc271d65f100e66a9317b459897a507ce20",
    (15, 1): "f69c20d3d54c088b1e9436f5881bf540487f5286611a49f31ba242a901908942",
    (15, 2): "31501a57fb5ad907e3de4372b8f4ea3af399547b85f354f70db1af554f653b73",
    (15, 3): "a47a02a9594475a4a5d0658e2400c279c8f9a225b9ba76df872fc5bfef421ef5",
    (15, 4): "4dc7060a2df8d7fd8f8da1a9efd5e4e2656c7d1a976d48b9e3682581302c5f8a",
    (16, 1): "0a8baacfcb3203af502d8ea849c5afb8227a22abaf2e76e8164541479e3ed19f",
    (16, 2): "d0a9373572e8264ff8e250b1b768f950922f8f47e8f4468a554c6b3272ddfe0e",
    (16, 3): "c4fdf510bdb3e2278044b382c308e17a427924501abf25db93ec260478a53bc0",
    (16, 4): "c4788fa498369a95de791b1b3f5a6729b76afd8ffcc1f9b4e36587c2b0b692d6",
    (17, 1): "7f3e608d46acabe448ca2737251b61f2e79bcbb4c463945a3eb886b590404126",
    (17, 2): "8f436f55c6f8a05c2d17c34677aeb146b4c5d63209a9dbb76a94b7868e89fbb6",
    (17, 3): "57a188b8bf9457c368f02badac98258f9090fd3772055abe3be36b537c1df251",
    (17, 4): "1bce5cb9d16f8d9ee5c12462295d483139b1e8b57d3db2e2d4f062fb6a5c3f5f",
    (18, 1): "ba36ae45b3ce6111a0abaa8d53c9d32b3aadac71cabcf95b2570953dc5e2e799",
    (18, 2): "c1629c9d7f0de2950e7a313c9996d6976cbd4bb08dc31c0801b66a98d1a7022e",
    (18, 3): "780632a76a1c188b50f8107a303607a0360bc94af5c4eaadee9c19f62aeb750b",
    (18, 4): "9fe2c2d41ecf698859b1fcf41781bf7be6a369c00c1e59367db01b33ab258f14",
    (19, 1): "044b08a885296251acac715d834a58884c50782e77adf6c3e26226ba539e2d01",
    (19, 2): "1f5125fc73f450623601b5df275da0fd71796996a8944e7df0ef0ece598be58c",
    (19, 3): "937b89bb7d7e8a8c1834fe1c93b77481d1377f7a9a5567e6bef6b5074a536557",
    (19, 4): "ee9b990843ec9abe84b0e21e81899849f408575d07b965d2a3d7d95f89542378",
    (20, 1): "5526c6e1c420b6c7a367ada01ed2cf9f42f3a8fd18ea194b9a04708f8c84edb9",
    (20, 2): "9f90b609e0738fe7f330d9574c633fa7c0e4e87efadba8f5a6d77decb503924d",
    (20, 3): "2c36f2b167c189f8b92cb07a0079d2c133a3c5ded6df3ef42e2a1cfd0ee5f376",
    (20, 4): "2e5164eeb2183b40fd16c36ec53a3058c871045da35a12520ef69c5eef8f3559",
    (21, 1): "804e707b9a2b8af25146cc06eaf51698a0041266df295ac0bd1d1843cb4cf73b",
    (21, 2): "5dbfba685c6fd342f67af7ae35fd51f036fecac3ff1de06f309733f8ae3556c8",
    (21, 3): "267f27ddf5456684220c1569eba88eeaa25ba32ff4af752aa85236f7771d4ed2",
    (21, 4): "e3676106ae80c9c67bf5cf079c53dc3e658e181099f71ad024c42ce6ab324268",
    (22, 1): "4ed52150ca2206c16ca479daee590e15fc3d7c0606684ade343c066296a0d877",
    (22, 2): "b1f4d2bf5f9230340abeb49b632fda88b9765dc37d7b5d4308704ddf38ecc3e4",
    (22, 3): "418159f32c9fa104432cbae32d47a3609d69a108b949d613e0581ac6e0acad39",
    (22, 4): "040d4a754192ec0af0b8d4048d77febabaddb351104f5862476a441c0e376959",
    (23, 1): "900953228d977932e4015b8ea8d11085b7ddbe49d5d8bbd9c4215170a4ae6ed2",
    (23, 2): "a28d3b1835d01c012728efce843d334e45e13d0d6ab2a1869369c64fb28bfe4c",
    (23, 3): "f24aed34bce267829861f6f66b91efc59ebdf6e9c7ba036c8b3addcce16675ca",
    (23, 4): "78322033f5345fbbfeccf058b52143c6d156cd3c7119420ee4af1b453763aaf2",
    (24, 1): "d241dd394093674c5bd12f212b4e6207fd5e71a3440893a8f961269b70007372",
    (24, 2): "2665e5d935c5da70829c0cc12579300f21d8cb84354c1eec44361e6bcecb3ecc",
    (24, 3): "11f08728b2b4f83e3835b3bbf12e88d468a1997011da3aba19b600dfdfc2c351",
    (24, 4): "82db0ecd88726bb638b5dd47f933b80ac5afd4ee58c32861ac16764f02f86252",
    (25, 1): "9ffd751c0b3c626b7a475f183588ba449088a8fbe9e393f123ea3ba977e32b81",
    (25, 2): "a38532c98db07e0a81181e23e0884524e3c58f512695251373fefb843bdea9ef",
    (25, 3): "24993bc2328be7959d87b4085ae6d55df761487d6bdc48cd4b37d53fcf724ac1",
    (25, 4): "627ea0ae39455629c975d2b4dfef8ed9d4e25d8c234dee4eacf8cbcda96b1c24",
    (26, 1): "cfecec8b32a647193ba970b5f92b5490e1c9015a1c185d88779bcf83270ce301",
    (26, 2): "e5ac83e4334f722352dc92eaedd3a252bfc45658de2784cda21787d731071c91",
    (26, 3): "0f2f7b3c9e3a54ab9005d94360d4a7066a3cc20dea09a716ee20833d1a659e74",
    (26, 4): "9703690e11e3833fa556a5cb438fcbaa3a8552966f627864ff4cd4ad10a0ef9a",
    (27, 1): "110f574dabfdb9cf4ff9b3883d10303f17e7e307a0b144cf288cb4dec79c7ccb",
    (27, 2): "53c0df7143b3ea1a598a2f46b0a410c79b5c438e0edb7daf86eecbe6bc8d9d3e",
    (27, 3): "4f97d497606acd1774729d72a83aa61cc9edcd8aa4a4b1b0fc24c78026e334bb",
    (27, 4): "c2672fcb8d89a800af19eba057d3ae202f341fa6f678e269c74992626c40892c",
    (28, 1): "248a6b84ca1bc7200c540058c325df9ee1399fb65ffcd0b929f2d3c24706d466",
    (28, 2): "ce88ba57db573c5d3aff8a509df74dd512e8ecab63a3c3fef1f72bb59ac8c1fc",
    (28, 3): "ae8f6db312599a73f412cec47b5f2e582260dffdf2728731f752b4c70ee98d99",
    (28, 4): "0cffaee2f135269bdee9ebcaabdd56a5af0387e6120ae82632039bea03bd497c",
    (32, 3): "c00333d809960e2f020480866dc88f420eb67bbd9191e7838b33abe4aa20f4dd",
    (32, 4): "9daac87d37f87c3e29f3205f72397a434bbfeb33fa47fd1e430892a4442b0803",
}

# The same digests for two mirrored censuses above n = 28, run with
# oracle_cap=n: (40, 17) from size 3 and (48, 22) from size 2.  Recorded from
# the census that complemented decoded members by set difference after the
# stages had run on the size-3 and size-2 orbits.
CI_MIRRORED_VERDICT_SHA256 = {
    (40, 17): "5f5dcb84fea27abc422251a0bb829d05db84e98c5357e07ad546348c123ea4f5",
    (48, 22): "c49f9a70627c7980d9d624fd44babce7f7804e12c6da39daf742d4db2ee46ed7",
}

# sha256 of the stdout of `circiso classify` and `circiso theta-table` (at the
# family's m) for every set of family_m7(1) (n = 343), family_m5(4)
# (n = 500) and family_m3(25) (n = 675), plus the scaled pair at n = 592,
# whose probes include Type-1 outcomes, a single-probe `classify --m --t`
# and two `theta` probes.  Recorded from the per-set classifier that took
# each verdict from `theta_image` and built each orbit member as a whole
# set times a unit, so these pin that later per-set classifiers print the
# same bytes.
CLI_STDOUT_SHA256 = {
    ('classify', '--n', '343', '--set', '1,7,48,50,97,99,146,148'): "645598be3cf7d72850e0b652f457f3fb2f912a2d13fbe5febe6f7ab165937fb7",
    ('theta-table', '--n', '343', '--m', '7', '--set', '1,7,48,50,97,99,146,148'): "2dbc7884bc8e4afd828678dd45db994dc79772524d445f97692b9266ccd4dfba",
    ('classify', '--n', '343', '--set', '7,8,41,57,90,106,139,155'): "a8a52609e2a293dbbdf225055d5027acb8105d665c7e45856210b8020e38c716",
    ('theta-table', '--n', '343', '--m', '7', '--set', '7,8,41,57,90,106,139,155'): "bacdece4a9f5157ff077e6a8716ada543e8fc1850c89b0dff02204fb3e0d0cfe",
    ('classify', '--n', '343', '--set', '7,15,34,64,83,113,132,162'): "869e81e10e47a0467c314131c5dec05584c622f38bc175e24bf1d4c2703d64bf",
    ('theta-table', '--n', '343', '--m', '7', '--set', '7,15,34,64,83,113,132,162'): "cef15ff4c3da6a847330762738e9396c0a2b1d358fa536a2e153c65633ec3bbd",
    ('classify', '--n', '343', '--set', '7,22,27,71,76,120,125,169'): "0d2d2f199d20760b4815a879d736e044c69e44582d0ab8c3961257b13a8e5d67",
    ('theta-table', '--n', '343', '--m', '7', '--set', '7,22,27,71,76,120,125,169'): "c1ef33f38f181b5f3a7121fca28487f838f07b2a4b5e902bc6af91b50c4e2cad",
    ('classify', '--n', '343', '--set', '7,20,29,69,78,118,127,167'): "223df318cab291e1425e62bf0bbd5c773efc97c8888406e984d9e48252662dd9",
    ('theta-table', '--n', '343', '--m', '7', '--set', '7,20,29,69,78,118,127,167'): "3fb0220a78ae33d0a4914c6869e0452a82ec3fc7f068628ed0d49f9e71bc90c9",
    ('classify', '--n', '343', '--set', '7,13,36,62,85,111,134,160'): "77ec8049be217f7ccf7b85a190293300f73f91befb51bc4e286526c4b37812f7",
    ('theta-table', '--n', '343', '--m', '7', '--set', '7,13,36,62,85,111,134,160'): "b1844162475d47fac8fd3c5f19cf059b3ab45611b7a726cb7b880b1d761d167b",
    ('classify', '--n', '343', '--set', '6,7,43,55,92,104,141,153'): "ec7eaee9765e631cedb0b95726f9e3a99d0dd27dd2968de11e1a41daf668fedc",
    ('theta-table', '--n', '343', '--m', '7', '--set', '6,7,43,55,92,104,141,153'): "67d6d0d6b4ca492bab833be0ea88b4218b89c649ca07d721ebd888ec31a6b052",
    ('classify', '--n', '500', '--set', '1,5,99,101,199,201'): "0633f20e3b32d991be126b575cd9ac984b571fc6c8dabaeffc3718dece13a09a",
    ('theta-table', '--n', '500', '--m', '5', '--set', '1,5,99,101,199,201'): "d06ce91158c34835e6cdfd98d8a15bd4b9bad2a5f853158da7378950221b0f62",
    ('classify', '--n', '500', '--set', '5,21,79,121,179,221'): "d004201eecb1079edada7aaf7724b9c8624fb4e93256e0dffdb3c12dac6bb2a2",
    ('theta-table', '--n', '500', '--m', '5', '--set', '5,21,79,121,179,221'): "6e505417b332ee45f20505e6e2492f1cce65e50ae52de54c41f57b991fe2751f",
    ('classify', '--n', '500', '--set', '5,41,59,141,159,241'): "3952e214b52c266d820a309a847fee9de1afd18eab4f563cc54adebc763534a6",
    ('theta-table', '--n', '500', '--m', '5', '--set', '5,41,59,141,159,241'): "7142db9d2588fda5e1631589898d43c9d38dc1774c6292e573373f916c9cd4af",
    ('classify', '--n', '500', '--set', '5,39,61,139,161,239'): "03a6a086335f2dd79d35ff749e1c168a81bba777d56ada1b831954104537a21a",
    ('theta-table', '--n', '500', '--m', '5', '--set', '5,39,61,139,161,239'): "30b4636385c2deb1b118feeadf58155b36d2f1b13c4ea286df810d37bb9ff12d",
    ('classify', '--n', '500', '--set', '5,19,81,119,181,219'): "a8bb3fd00292e719aaccd6e58197fb8e755982b3e6f9d29464ddd647a472dbaa",
    ('theta-table', '--n', '500', '--m', '5', '--set', '5,19,81,119,181,219'): "002ca4afb2fd9130773c554e9c0c9bfeb1cf58ac392817b72ed2ac2e7e063fb1",
    ('classify', '--n', '675', '--set', '1,3,224,226'): "9e7b706e5661a885cbbd21563ff9858e08b45c448e822bd605818145290bb257",
    ('theta-table', '--n', '675', '--m', '3', '--set', '1,3,224,226'): "c7d0fcbc138df784d2f2ebb1422817b4df443eada6d377e25d010a6e8154d315",
    ('classify', '--n', '675', '--set', '3,76,149,301'): "3b08721af28a547f681c2f1dcc62a00d8e79dd441b38872628e231c768fd6e01",
    ('theta-table', '--n', '675', '--m', '3', '--set', '3,76,149,301'): "1879a3f756978b264a3c0839e43b3f6fcb61f195dd7dc99b774aa47df254ba0f",
    ('classify', '--n', '675', '--set', '3,74,151,299'): "d9773ed2d7ff59eaa8622946a111cd5f4acba0f216d20c8c8dde6d922447b883",
    ('theta-table', '--n', '675', '--m', '3', '--set', '3,74,151,299'): "81122acbd21750f6efebeedcff03bb30a035736e1df4029f119cfb0c883a14a5",
    ('classify', '--n', '592', '--set', '37,74,148,259'): "91e1f1547aedf4e08955ddacf924924d1058871d551d2a6cf6f0e77842b6c360",
    ('classify', '--n', '592', '--set', '74,111,148,185'): "f39ad35126ceed4ec0d03751a7c98f18eaa214e8b627bd41227834582df61bcc",
    ('theta-table', '--n', '592', '--m', '2', '--set', '37,74,148,259'): "b28fac73f98a8b0ec2b5f45e421a3a27ffb42dc15282e10538ba6cf3bc3ac7a8",
    ('theta-table', '--n', '592', '--m', '4', '--set', '37,74,148,259'): "0b4fe310a573544f05d15aca807369a57cc742ea1086dcfca15cc31db51487a5",
    ('classify', '--n', '592', '--set', '37,74,148,259', '--m', '4', '--t', '37'): "116e8ed2192f2067d879b64f09828b234f5d70b6c2379b0240e3fc33b533e2b9",
    ('theta', '--n', '675', '--m', '3', '--t', '25', '--set', '1,3,224,226'): "adc67fcd38114586b7f4ffa54a01ef1598973e346f21347d9c4aaeadc51c9450",
    ('theta', '--n', '675', '--m', '3', '--t', '26', '--set', '1,3,224,226'): "004f36c5372f6c4f497eff603e672f49f85fa801f024b6aabd88b42b17f2046b",
}

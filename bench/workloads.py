"""The benchmark's workloads: CLI operations and their pinned stdout digests.

Each operation is an argv for `nonnesting.cli.run`.  Sizes are chosen so
that one pass over a workload takes about half a second on a 2-CPU
machine, which gives a few dozen fresh-interpreter passes per run; each
keeps the family and k of the workload it stands for.

The sha256 pins are of stdout as printed by the seed code, after
`checks.stdout_digest` masks the per-check runtimes that `verify` prints.
CLI stdout must stay byte-identical, so a changed digest is a failure.
"""

WORKLOADS = {
    # gentree.count_sequence does almost all of the work, through both
    # pushers (permutations, and the generic one for partitions); wide
    # levels with small counts and deep levels with big-int counts.
    "dp-sequence": {
        "count --family permutations --k 4 --n 13":
            "0c215b90c9c207e2ea228cdabf22f21f9fd2d4b0337c7c23887b0e6ed7018d94",
        "count --family partitions-enhanced --k 7 --n 15":
            "2b99128755eedd3d18c84a257c17f3087c4af11ba669155d1faf81798c01fa79",
        "count --family partitions --k 3 --n 50":
            "ef286c8d7e05eb7ef3f88ddc08993ae3760c3ab555d163794fc41ee2d2327156",
    },
    # gentree.count_levels keeps the whole label distribution, and the CLI
    # sorts it and writes big-int JSON.
    "dp-levels": {
        "count --family permutations --k 5 --n 11 --all-labels --format json":
            "817390efbf11c1b4f120f366bf59a6ee99fc024b71363ed02414469012e4aab2",
        "count --family partitions-enhanced --k 3 --n 50 --all-labels --format json":
            "b12daf8ca309da19157197696b0c95a47cf1894c2a8ce1b07a92e434b4a10934",
    },
    # series.solve_equation does nearly all of the work.
    "series-solve": {
        "series --family baxter --n 22":
            "cc4ccd3f388777933ace9d109090af599ad577ada6c8e71f04a1d83683e75e01",
        "series --family permutations3 --n 11":
            "3ea4dc8c9f37e963c304dc2e88e3566f4722c747ecc062e56e3d20000e1a7a36",
        "series --family partitions --k 4 --n 13":
            "e76ed21303c5d10340b1e5e57005d2d6f8889f3f66337daad1d3cb286b6db47b",
        "series --family partitions-enhanced --k 5 --n 11":
            "b9243fb0757d19eb60c0f47f3e282400fa8d15f99ab5ff9b13f1386b6abc789f",
    },
    # oracle and diagrams dominate: brute force over all objects, and the
    # depth-first walk of generate_diagrams.
    "crosscheck": {
        "oracle --family partitions --k 3 --n 9":
            "b446ad1ac521916c4112258acac97f93a267dd53def975e5a2f1594a69f8360a",
        "oracle --family permutations --k 4 --n 7":
            "6856efb3ae66023d29b4c33321f4fdfa28d132a5a48a48b0488745a1ef7c712b",
        "generate --family permutations --k 3 --n 6 --closed-only":
            "1df72a26b0b228fb23e76ae1f181cf331c4785a8acfef0b8e8a405d8850b83be",
        "verify --suite all --max-n 6":
            "9b84ce995355daca59652df07162e3db94523168d4eda86d58aa96619cb8c73a",
    },
}

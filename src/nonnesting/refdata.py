"""Embedded reference counting sequences.

The tables below are transcriptions of published counting data for
k-nonnesting set partitions, set partitions avoiding enhanced k-nestings
and k-nonnesting permutations, keyed by the forbidden nesting size k, plus
the Baxter series coefficients.  Terms are stored as decimal strings and
never recomputed; a checksum over the transcription guards against
accidental edits.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ReferenceSequence", "lookup", "all_sequences", "transcription_checksum"]


@dataclass(frozen=True)
class ReferenceSequence:
    """An embedded ground-truth sequence.

    offset is the object size of the first term (1 for the counting
    tables; 0 for the Baxter series, indexed by z-exponent).
    """

    oeis_id: str
    family: str
    k: int
    offset: int
    terms: tuple

    def term(self, n):
        if type(n) is not int:  # a bool or a float as well
            raise ValueError(f"n must be an int, got {n!r}")
        i = n - self.offset
        if not 0 <= i < len(self.terms):
            raise IndexError(f"n={n} outside embedded range")
        return int(self.terms[i])

    def as_ints(self):
        return [int(t) for t in self.terms]


_TABLES = {
    ("partitions", 3): (
        "A108304",
        "1, 2, 5, 15, 52, 202, 859, 3930, 19095, 97566, 520257, 2877834, "
        "16434105, 96505490, 580864901, 3573876308, 22426075431, "
        "143242527870, 929759705415, 6123822269373, 40877248201308",
    ),
    ("partitions", 4): (
        "A108305",
        "1, 2, 5, 15, 52, 203, 877, 4139, 21119, 115495, 671969, 4132936, "
        "26723063, 180775027, 1274056792, 9320514343, 70548979894, "
        "550945607475, 4427978077331, 36544023687590, 309088822019071",
    ),
    ("partitions", 5): (
        "A192126",
        "1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115974, 678530, 4212654, "
        "27627153, 190624976, 1378972826, 10425400681, 82139435907, "
        "672674215928, 5712423473216, 50193986895328, 455436027242590",
    ),
    ("partitions", 6): (
        "A192127",
        "1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213596, "
        "27644383, 190897649, 1382919174, 10479355676, 82850735298, "
        "681840170501, 5828967784989, 51665915664913, 473990899143781",
    ),
    ("partitions", 7): (
        "A192128",
        "1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597, "
        "27644437, 190899321, 1382958475, 10480139391, 82864788832, "
        "682074818390, 5832698911490, 51723290618772, 474853429890994",
    ),
    ("partitions-enhanced", 3): (
        "A108307",
        "1, 2, 5, 15, 51, 191, 772, 3320, 15032, 71084, 348889, 1768483, "
        "9220655, 49286863, 269346822, 1501400222, 8519796094, "
        "49133373040, 287544553912, 1705548000296, 10241669069576",
    ),
    ("partitions-enhanced", 4): (
        "A192855",
        "1, 2, 5, 15, 52, 203, 876, 4120, 20883, 113034, 648410, 3917021, "
        "24785452, 163525976, 1120523114, 7947399981, 58172358642, "
        "438300848329, 3391585460591, 26898763482122, 218263920521938",
    ),
    ("partitions-enhanced", 5): (
        "A192865",
        "1, 2, 5, 15, 52, 203, 877, 4140, 21146, 115945, 678012, 4205209, "
        "27531954, 189486817, 1365888674, 10278272450, 80503198320, "
        "654544093035, 5511256984436, 47950929125540, 430240226306346",
    ),
    ("partitions-enhanced", 6): (
        "A192866",
        "1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678569, 4213555, "
        "27643388, 190878823, 1382610179, 10474709625, 82784673008, "
        "680933897225, 5816811952612, 51505026270176, 471875801114626",
    ),
    ("partitions-enhanced", 7): (
        "A192867",
        "1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597, "
        "27644436, 190899266, 1382956734, 10480097431, 82863928963, "
        "682058946982, 5832425824171, 51718812364549, 474782378367618",
    ),
    ("permutations", 3): (
        "A193938",
        "1, 2, 6, 24, 118, 675, 4333, 30464, 230615, 1856336, 15738672, "
        "139509303, 1285276242, 12248071935, 120255584181, 1212503440774, "
        "12519867688928, 132079067871313",
    ),
    ("permutations", 4): (
        "A193935",
        "1, 2, 6, 24, 120, 720, 5034, 40087, 356942, 3500551, 37343168, "
        "428886219, 5257753614, 68306562647, 934747457369, 13404687958473, "
        "200554264435218, 3118638648191005",
    ),
    ("permutations", 5): (
        "A193936",
        "1, 2, 6, 24, 120, 720, 5040, 40320, 362856, 3627385, 39864333, "
        "477407104, 6183182389, 86033729930, 1278515941177, 20185987771091",
    ),
    ("permutations", 6): (
        "A193937",
        "1, 2, 6, 24, 120, 720, 5040, 40320, 362880, 3628800, 39916680, "
        "478991641, 6226516930, 87157924751, 1306945300264",
    ),
    ("baxter", 3): (
        "A001181",
        "1, 2, 6, 22, 92, 422, 2074, 10754, 58202, 326240, 1882960",
    ),
}

# sha256 over the canonical "family k oeis_id terms" lines; recorded when
# the tables were transcribed and asserted by the test suite since
_CHECKSUM = "8c2d48e40b205b5273196b911f1412b687f07a1b018401e6f6339012e4738670"


def _sequences():
    out = {}
    for (family, k), (oeis_id, raw) in _TABLES.items():
        terms = tuple(t.strip() for t in raw.split(","))
        offset = 0 if family == "baxter" else 1
        out[(family, k)] = ReferenceSequence(
            oeis_id=oeis_id, family=family, k=k, offset=offset, terms=terms
        )
    return out


_SEQUENCES = _sequences()


def lookup(family, k):
    """Return the embedded sequence for (family, k).

    Raises KeyError for pairs with no embedded data (for example
    partitions with k=2), and ValueError for a k that is not an int.
    """
    if type(k) is not int:  # a bool or a float as well
        raise ValueError(f"k must be an int, got {k!r}")
    try:
        return _SEQUENCES[(family, k)]
    except KeyError:
        raise KeyError(f"no embedded reference data for ({family!r}, k={k})") from None


def all_sequences():
    return dict(_SEQUENCES)


def transcription_checksum():
    """sha256 of the embedded tables in a canonical form; compare against
    the stored constant to detect accidental edits."""
    # imported here: no command calls this, and hashlib costs every start
    import hashlib

    lines = []
    for (family, k), (oeis_id, raw) in sorted(_TABLES.items()):
        terms = ",".join(t.strip() for t in raw.split(","))
        lines.append(f"{family} {k} {oeis_id} {terms}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return digest, digest == _CHECKSUM

"""Reference census values as originally published, misprints included.

The table and the long P list are stored verbatim so misprints are
detected by comparison with the recurrences at run time rather than
hard-coded.  Four table cells (the distinct-parts>=2 column and its R
column at N = 7 and 8) and one list entry (N = 3) disagree with the
recurrences; the errata helpers report exactly those.
"""

from dataclasses import astuple, dataclass

from .partitions import partition_counts

__all__ = ["Erratum", "PUBLISHED_TABLE", "PUBLISHED_P_LIST", "table_errata", "p_list_errata"]

# N -> (P, Q, R, P(;1), Q(;1), R(;1)) as printed.
PUBLISHED_TABLE = {
    1: (1, 1, 0, 0, 0, 0),
    2: (2, 1, 1, 1, 1, 0),
    3: (3, 2, 1, 1, 1, 0),
    4: (5, 2, 3, 2, 1, 1),
    5: (7, 3, 4, 2, 2, 0),
    6: (11, 4, 7, 4, 2, 2),
    7: (15, 5, 10, 4, 2, 2),
    8: (22, 6, 16, 7, 4, 3),
    9: (30, 8, 22, 8, 5, 3),
    10: (42, 10, 32, 12, 5, 7),
}

# P(N) for N = 1..49 as printed; the N = 3 entry is a known misprint.
PUBLISHED_P_LIST = {
    1: 1, 2: 2, 3: 2, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22, 9: 30, 10: 42,
    11: 56, 12: 77, 13: 101, 14: 135, 15: 176, 16: 231, 17: 297, 18: 385,
    19: 490, 20: 627, 21: 792, 22: 1002, 23: 1255, 24: 1575, 25: 1958,
    26: 2436, 27: 3010, 28: 3718, 29: 4565, 30: 5604, 31: 6842, 32: 8349,
    33: 10143, 34: 12310, 35: 14883, 36: 17977, 37: 21637, 38: 26015,
    39: 31185, 40: 37338, 41: 44583, 42: 53174, 43: 63261, 44: 75175,
    45: 89134, 46: 105558, 47: 124754, 48: 147273, 49: 173525,
}

_COLUMNS = ("P", "Q", "R", "P1", "Q1", "R1")


@dataclass(frozen=True)
class Erratum:
    """One cell where the printed value disagrees with the recurrences."""

    n: int
    column: str
    printed: int
    computed: int

    def describe(self):
        return (
            f"N={self.n} {self.column}: printed {self.printed}, "
            f"recurrence gives {self.computed}"
        )


def table_errata(max_n: int = 10) -> list:
    """Cells of the published table that the recurrences contradict."""
    out = []
    for n in sorted(PUBLISHED_TABLE):
        if n > max_n:
            break
        computed = astuple(partition_counts(n))[1:]
        for col, printed, got in zip(_COLUMNS, PUBLISHED_TABLE[n], computed):
            if printed != got:
                out.append(Erratum(n=n, column=col, printed=printed, computed=got))
    return out


def p_list_errata(max_n: int = 49) -> list:
    """Entries of the published P list that the recurrence contradicts."""
    out = []
    for n in sorted(PUBLISHED_P_LIST):
        if n > max_n:
            break
        computed = partition_counts(n).p
        if PUBLISHED_P_LIST[n] != computed:
            out.append(Erratum(n=n, column="P", printed=PUBLISHED_P_LIST[n], computed=computed))
    return out

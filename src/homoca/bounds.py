"""Every size limit of the package, in one place.

Each limit is compared against by the function doing the work it
protects, and only there; callers react to that function's error.  Past
a limit the input is refused with InputError (exit 2), the check is
refused with BoundError (the CLI reports `bound_exceeded`, exit 3), or
the work is sampled or split into blocks, as each comment says.
"""

# group order, so int32 mul tables of order**2 entries; InputError past it
MAX_GROUP_ORDER = 5040
# points of an action, so int32 act tables of order * points entries; InputError past it
MAX_POINTS = 4096
# entries per side of each block verify_action compares, so its two gathers stay small
ACTION_CHECK_BLOCK = 1 << 20
# entries of a rule table, a step window's patterns or a combined rule; BoundError past it
MAX_RULE_TABLE = 1 << 20
# entries of a `run` trace (32 MiB of int64, and iterate keys as large); BoundError past it
MAX_TRACE = 1 << 22
# configurations in a global table, the domain of the exhaustive laws; BoundError past it
CONFIG_TABLE_BOUND = 1 << 16
# configurations the seeded collision search of `invert` draws past CONFIG_TABLE_BOUND
SAMPLE_COUNT = 1024
# configurations a relation relates, the side of its boolean matrix; BoundError past it
RELATION_UNIVERSE_BOUND = 256
# digits pattern_codes gathers at once, so its int64 copy of them stays at 512 KiB
GATHER_BLOCK = 1 << 16
# entries of a trace the `run` printer turns into text at once, so its memory stays flat
PRINT_BLOCK = 1 << 16
# entries of a table (rows times its first row's) from which the loader decodes it
# straight to an array; json parses smaller tables, and lists of them convert,
# faster than numpy decodes them
TABLE_DECODE_ENTRIES = 1024

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
# entries of a rule table, a step window's patterns or a combined rule; BoundError past it
MAX_RULE_TABLE = 1 << 20
# entries of a `run` trace (32 MiB of int64, and iterate keys as large); BoundError past it
MAX_TRACE = 1 << 22
# configurations in a global table or an agreement labeling, the domain of the exhaustive
# laws and of the uniformity checks; BoundError past it.  Every code inside it fits 16
# bits, so tables, labelings, shift permutations and inverse tables are uint16 at most
# (encoding.digit_dtype of the configuration count)
CONFIG_TABLE_BOUND = 1 << 16
# configurations the seeded collision search of `invert` draws past CONFIG_TABLE_BOUND
SAMPLE_COUNT = 1024
# digits pattern_codes gathers at once, and rule codes window_collision computes at
# once, so each int64 array of them stays at 512 KiB; also the entries per side of
# each block the group sweeps compare (associativity in verify_group, compatibility
# in verify_action), so their gathers stay small whatever the order
GATHER_BLOCK = 1 << 16
# entries of a trace the `run` printer turns into text at once, so its memory stays flat
PRINT_BLOCK = 1 << 16
# bytes of a file the loader counts commas in at once, deciding whether it can hold a
# table to decode; a large file stops at the first block that holds enough
COMMA_BLOCK = 1 << 12
# entries of a table (rows times its first row's) from which the loader decodes it
# straight to an array; json parses smaller tables, and lists of them convert,
# faster than numpy decodes them
TABLE_DECODE_ENTRIES = 1024

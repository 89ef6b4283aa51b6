#!/usr/bin/env python3
"""Compare rerun evaluation artifacts with their goldens, line by line.

    python3 bench/certify_goldens.py GOLDEN RERUN [GOLDEN RERUN ...]

The byte-exact gate (make reproduce) fails on any change to the simplex's
pivot path, even one whose bounds are certified.  This comparer accepts a
rerun when each of its lines equals the golden's line, except for two kinds
of line:

- the fields of an "lp_counters" block, which record the pivot path;
- the values of "lp_avg_bound", "lp_max_bound", "bound_avg" and
  "bound_max", which must agree within 1e-9 relative.

Any other difference, including a different line count or a changed key,
fails.  The sweep goldens are filtered with grep -v and are no longer valid
JSON, so the files are read as text, never parsed.  Exits 1 when any pair
fails.  Standard library only.
"""

import re
import sys

BOUND_KEYS = ("lp_avg_bound", "lp_max_bound", "bound_avg", "bound_max")
REL_TOL = 1e-9
FIELD = re.compile(r'^(\s*)"([^"]+)": (.*?)(,?)$')


def bound_close(a, b):
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y))


def compare(golden_path, rerun_path):
    """Returns (ok, report lines) for one golden and its rerun."""
    with open(golden_path) as f:
        golden = f.read().splitlines()
    with open(rerun_path) as f:
        rerun = f.read().splitlines()
    name = golden_path
    if len(golden) != len(rerun):
        return False, ["%s: %d lines, rerun has %d" % (name, len(golden), len(rerun))]
    errors = []
    bounds_moved = 0
    counters_moved = 0
    in_counters = False
    for no, (g, r) in enumerate(zip(golden, rerun), start=1):
        if in_counters and g.strip().startswith("}"):
            in_counters = False
        if g == r:
            m = FIELD.match(g)
            if m and m.group(2) == "lp_counters" and m.group(3) == "{":
                in_counters = True
            continue
        gm, rm = FIELD.match(g), FIELD.match(r)
        same_shape = (
            gm is not None
            and rm is not None
            and gm.group(1) == rm.group(1)
            and gm.group(2) == rm.group(2)
            and gm.group(4) == rm.group(4)
        )
        if same_shape and in_counters:
            counters_moved += 1
        elif same_shape and gm.group(2) in BOUND_KEYS and bound_close(gm.group(3), rm.group(3)):
            bounds_moved += 1
        else:
            errors.append("%s:%d: golden %r, rerun %r" % (name, no, g.strip(), r.strip()))
    if errors:
        return False, errors
    if bounds_moved == 0 and counters_moved == 0:
        return True, ["%s: identical" % name]
    return True, [
        "%s: %d bound line(s) within %g relative, %d lp_counters line(s) moved, "
        "all other lines identical" % (name, bounds_moved, REL_TOL, counters_moved)
    ]


def main(argv):
    if len(argv) < 2 or len(argv) % 2 != 0:
        sys.stderr.write(__doc__)
        return 2
    ok = True
    for golden, rerun in zip(argv[0::2], argv[1::2]):
        pair_ok, report = compare(golden, rerun)
        ok = ok and pair_ok
        for line in report:
            print("reproduce-certified: " + line)
    print("reproduce-certified: " + ("OK" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
